"""Seeded randomized property suite over the module invariants.

Each property draws its own deterministic stream of instances and
networks and counts violations. Single-removal dominance also shrinks its
first counterexample by greedily dropping edges, then nodes, while the
failure persists for the trial's agent and subset, which it prints under
the shrunk instance's labels; the others report theirs as drawn. A clean
run is a (statistical) certificate that the exact checkers, the cost
identities, and the proven structural bounds agree on random data.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .dynamics import EQUILIBRIUM, FIRST_FOUND, run_dynamics
from .engine import CostEngine, canonical_edges
from .errors import BoundViolation
from .harness import _check_network_bounds
from .model import (
    Instance,
    Network,
    cost_report,
    shortest_distances,
    shortest_path_tree,
    star_social_cost,
    validate_host,
)
from .optimum import _minimum_spanning_tree, _random_spanning_tree, brute_force_opt
from .randomgen import random_instance
from .stability import best_single_removal


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    counterexample: str = None
    note: str = None

    @property
    def ok(self):
        return self.failures == 0


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    results: tuple

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [f"property suite seed={self.seed}"]
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.name}: {r.trials} trials, {r.failures} failures"
            if r.note:
                line += f" ({r.note})"
            if r.counterexample:
                line += f"\n  counterexample: {r.counterexample}"
            lines.append(line)
        return "\n".join(lines)


def _random_connected_network(n, rng, extra_p=0.3):
    edges = set(_random_spanning_tree(n, rng))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return Network(n=n, edges=canonical_edges(edges))


def _drop_node(inst, net, x):
    keep = [u for u in range(inst.n) if u != x]
    index = {u: i for i, u in enumerate(keep)}
    w = [[inst.host.weights[u][v] for v in keep] for u in keep]
    sub_inst = Instance(host=validate_host(w), alpha=inst.alpha)
    sub_net = Network.from_pairs(
        len(keep),
        ((index[u], index[v]) for u, v in net.edges if u != x and v != x),
    )
    return sub_inst, sub_net


def shrink_counterexample(inst, net, fails):
    """Greedy shrink: drop edges, then nodes, while fails(inst, net) holds."""
    inst, net, _ = _shrink_labelled(inst, net, lambda i, g, labels: fails(i, g))
    return inst, net


def _shrink_labelled(inst, net, fails):
    """``shrink_counterexample`` for a predicate ``fails(inst, net, labels)``
    where ``labels[i]`` is the node of the first instance that node i of
    the shrunk one is; dropping a node renumbers the nodes above it.
    Returns the shrunk instance, network and labels."""
    labels = tuple(range(inst.n))
    changed = True
    while changed:
        changed = False
        for e in net.edges:
            cand = Network(n=net.n, edges=canonical_edges(set(net.edges) - {e}))
            if fails(inst, cand, labels):
                net = cand
                changed = True
                break
    changed = True
    while changed and inst.n > 2:
        changed = False
        for x in range(inst.n):
            sub_inst, sub_net = _drop_node(inst, net, x)
            sub_labels = labels[:x] + labels[x + 1 :]
            if fails(sub_inst, sub_net, sub_labels):
                inst, net, labels = sub_inst, sub_net, sub_labels
                changed = True
                break
    return inst, net, labels


def _describe(inst, net):
    w = [[str(x) for x in row] for row in inst.host.weights]
    return f"alpha={inst.alpha} weights={w} edges={list(net.edges)}"


def _mixed_instance(rng, n, metric_only=False):
    models = ("tree", "euclidean") if metric_only else ("uniform", "tree", "euclidean")
    model = models[rng.randrange(len(models))]
    alpha = Fraction(rng.randint(1, 12), rng.choice([1, 2, 4]))
    return random_instance(n, model, rng.randrange(10**6), alpha)


def _dominance_violation(inst, net, u, subset):
    """The edges of ``subset`` at u in ``net`` when deleting them pays u
    while no single deletion does; None when the property holds there."""
    sub = [e for e in subset if e in net.edges and u in e]
    if not sub:
        return None
    engine = CostEngine(inst)
    base = engine.member_cost(net.edges, u)
    if engine.member_cost(canonical_edges(set(net.edges) - set(sub)), u) >= base:
        return None
    best = best_single_removal(inst, net, u)
    return sub if best is None or not (best[1] < 0) else None


_SKIP = object()  # a trial's draw the property does not apply to


def _run_trials(name, stream, seed, trials, trial):
    """Run ``trial(rng)`` ``trials`` times on the property's own seeded stream.

    A trial returns ``_SKIP`` when its draw does not apply, None when the
    property holds, or a function that describes the counterexample; only
    the first failure is described. ``trials`` in the result counts the
    trials that applied.
    """
    rng = random.Random(f"{stream}:{seed}")
    tested = failures = 0
    example = None
    for _ in range(trials):
        outcome = trial(rng)
        if outcome is _SKIP:
            continue
        tested += 1
        if outcome is not None:
            failures += 1
            if example is None:
                example = outcome()
    return PropertyResult(name=name, trials=tested, failures=failures, counterexample=example)


def check_single_removal_dominance(seed, trials):
    """If deleting any set of an agent's edges pays, one deletion pays."""

    def trial(rng):
        n = rng.randint(3, 6)
        inst = _mixed_instance(rng, n)
        net = _random_connected_network(n, rng)
        u = rng.randrange(n)
        incident = sorted(e for e in net.edges if u in e)
        if not incident:
            return _SKIP
        size = rng.randint(1, len(incident))
        subset = sorted(rng.sample(incident, size))

        def violation(i, g, labels):
            # u and subset under the labels of the shrunk instance i
            if u not in labels:
                return None
            index = {x: k for k, x in enumerate(labels)}
            sub = [(index[a], index[b]) for a, b in subset if a in index and b in index]
            return _dominance_violation(i, g, index[u], sub)

        def fails(i, g, labels):
            return violation(i, g, labels) is not None

        def shrunk():
            si, sg, labels = _shrink_labelled(inst, net, fails)
            found = violation(si, sg, labels)
            return f"agent={labels.index(u)} subset={found} {_describe(si, sg)}"

        return shrunk if fails(inst, net, range(n)) else None

    return _run_trials(
        "single-removal dominance", "single-removal-dominance", seed, trials, trial
    )


def check_tree_distance_bound(seed, trials):
    """sum_u d_G(u,V) <= sum_u d_T(u,V) <= 2(n-1) d_G(z,V) for every root z."""

    def trial(rng):
        n = rng.randint(3, 6)
        inst = _mixed_instance(rng, n)
        net = _random_connected_network(n, rng)
        dm = shortest_distances(net, inst.host)
        total_g = sum(dm.row_sum(u) for u in range(n))
        for z in range(n):
            tree = shortest_path_tree(net, inst.host, z)
            dt = shortest_distances(tree, inst.host)
            total_t = sum(dt.row_sum(u) for u in range(n))
            if not (total_g <= total_t <= 2 * (n - 1) * dm.row_sum(z)):
                return lambda: f"z={z} {_describe(inst, net)}"
        return None

    return _run_trials(
        "shortest-path-tree distance bound", "tree-distance-bound", seed, trials, trial
    )


def check_metric_distance_ratio(seed, trials):
    """Any connected subgraph of a metric host: distance cost <= 2(n-1) * optimum's."""

    def trial(rng):
        n = rng.randint(3, 5)
        inst = _mixed_instance(rng, n, metric_only=True)
        net = _random_connected_network(n, rng)
        opt = brute_force_opt(inst)
        d_net = sum(cost_report(inst, net).distance_costs)
        d_opt = sum(cost_report(inst, opt.network).distance_costs)
        return (lambda: _describe(inst, net)) if d_net > 2 * (n - 1) * d_opt else None

    return _run_trials(
        "metric connected-subgraph distance ratio <= 2(n-1)",
        "metric-distance-ratio", seed, trials, trial,
    )


def check_tree_edge_cost_ratio(seed, trials):
    """Any spanning tree of a metric host: edge weight <= n * optimum's."""

    def trial(rng):
        n = rng.randint(3, 5)
        inst = _mixed_instance(rng, n, metric_only=True)
        tree = _random_connected_network(n, rng, extra_p=0.0)
        opt = brute_force_opt(inst)
        w = inst.host.weights
        w_tree = sum(w[u][v] for u, v in tree.edges)
        w_opt = sum(w[u][v] for u, v in opt.network.edges)
        return (lambda: _describe(inst, tree)) if w_tree > n * w_opt else None

    return _run_trials(
        "metric tree edge-cost ratio <= n", "tree-edge-cost-ratio", seed, trials, trial
    )


def check_stable_network_bounds(seed, trials):
    """Improving-response ps endpoints satisfy the stretch and edge-cost bounds."""

    def trial(rng):
        n = rng.randint(3, 6)
        inst = _mixed_instance(rng, n)
        start = Network(n=n, edges=_minimum_spanning_tree(inst))
        trace = run_dynamics(inst, start, "ps", FIRST_FOUND, max_steps=400)
        if trace.outcome != EQUILIBRIUM:
            return _SKIP
        try:
            _check_network_bounds(inst, trace.final, {})
        except BoundViolation:
            return lambda: _describe(inst, trace.final)
        return None

    result = _run_trials(
        "pairwise-stable endpoint bounds (stretch, edge cost)",
        "stable-network-bounds", seed, trials, trial,
    )
    # every trial counts here; the ones that applied are the converged ones
    return replace(result, trials=trials, note=f"{result.trials} converged")


def check_cost_identities(seed, trials):
    """Social total equals the agent sum and the 2aw(E)+dist closed form;
    stars match the star closed form."""

    def trial(rng):
        n = rng.randint(2, 6)
        inst = _mixed_instance(rng, n)
        net = _random_connected_network(n, rng)
        report = cost_report(inst, net)
        w_total = sum(inst.host.weights[u][v] for u, v in net.edges)
        direct = 2 * inst.alpha * w_total + sum(report.distance_costs)
        if report.social_total != sum(report.totals) or report.social_total != direct:
            return lambda: _describe(inst, net)
        center = rng.randrange(n)
        star = Network.from_pairs(
            n, ((center, v) for v in range(n) if v != center)
        )
        star_report = cost_report(inst, star)
        star_w = sum(inst.host.weights[u][v] for u, v in star.edges)
        if star_report.social_total != star_social_cost(n, inst.alpha, star_w):
            return lambda: f"star center={center} {_describe(inst, star)}"
        return None

    return _run_trials(
        "cost identities (social sum, star closed form)", "cost-identities",
        seed, trials, trial,
    )


# (property, trials) in report order, read at call time; more coverage
# comes from running more seeds.
SUITE = (
    (check_single_removal_dominance, 10_000),
    (check_tree_distance_bound, 1_000),
    (check_metric_distance_ratio, 300),
    (check_tree_edge_cost_ratio, 300),
    (check_stable_network_bounds, 150),
    (check_cost_identities, 300),
)


def property_suite(seed: int = 0) -> PropertyReport:
    results = tuple(prop(seed, trials) for prop, trials in SUITE)
    return PropertyReport(seed=seed, results=results)
