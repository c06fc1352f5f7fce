"""Social optimum: exact enumeration at small n, heuristic upper bound otherwise."""

from dataclasses import dataclass
from fractions import Fraction
import random

from .engine import CostEngine, canonical_edges
from .errors import BoundViolation, InstanceTooLarge, NotProvenOptimal
from .model import Instance, Network, spanner_stretch
from .scalars import is_inf, parse_int

OPT_LIMIT = 7  # largest n whose optimum is proven by enumeration
HEURISTIC_RESTARTS = 3  # seeded random spanning trees tried by heuristic_opt


@dataclass(frozen=True)
class OptResult:
    network: Network
    cost: Fraction
    proven: bool  # True only after exhaustive enumeration


def _all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def connected_subgraphs(n, step, root):
    """``(key, state)`` for every connected spanning subgraph of K_n, in
    sorted order of the edge tuples ``key``.

    A depth-first walk over edge subsets: each node extends its parent's
    set by one pair of higher index than the parent's last, so the sets
    come out in the order of their sorted edge tuples, each exactly once.
    Components are tracked as one node bitmask per vertex along the path.

    Each node carries a state, ``root`` at the empty set. A node's state is
    ``step(parent_state, j)``, called as the node is reached, where ``j``
    indexes the added pair in ``_all_pairs(n)``. A node whose step returns
    None is skipped with its whole subtree, so a step may return None only
    where no superset down the branch is wanted. The step may read values
    that change while the walk runs.
    """
    pairs = _all_pairs(n)
    m = len(pairs)
    full = (1 << n) - 1
    # (parent's key, components and state; index of the pair that extends it)
    stack = [((), [1 << v for v in range(n)], root, j) for j in range(m - 1, -1, -1)]
    while stack:
        key, comp, state, j = stack.pop()
        state = step(state, j)
        if state is None:
            continue
        u, v = pairs[j]
        key += (pairs[j],)
        if not comp[u] >> v & 1:
            merged = comp[u] | comp[v]
            comp = [merged if merged >> x & 1 else c for x, c in enumerate(comp)]
        if comp[0] == full:
            yield key, state
        stack.extend((key, comp, state, k) for k in range(m - 1, j, -1))


def social_optimum(inst: Instance, seed: int = 0):
    """The optimum the lab reports: proven by ``brute_force_opt`` up to
    ``OPT_LIMIT`` nodes, a ``heuristic_opt`` upper bound beyond."""
    parse_int(seed, "seed")
    if inst.n <= OPT_LIMIT:
        return brute_force_opt(inst)
    return heuristic_opt(inst, seed=seed)


def brute_force_opt(inst: Instance):
    """Minimum social cost over all connected edge subsets, proven by enumeration.

    Disconnected subsets cost infinity and are never evaluated. The subsets
    are visited by ``connected_subgraphs``, a depth-first walk in which
    each subset's children are its supersets, pruned with the lower bound
    ``2p * spend + dist_floor``: both endpoints pay alpha for every edge,
    and no network's distances beat the full host's (``dist_floor``).
    Weights are non-negative, so the bound never falls down a branch, and
    a node whose bound exceeds the best cost seen is cut off with its
    whole subtree, unevaluated. Seeding the best cost with the minimum
    spanning tree's makes the prune bite from the first node.

    The result is the minimum of ``(cost, key)`` over every connected
    subset, with ties broken toward the canonically smallest edge set,
    whatever order the walk takes. A node is cut off only when its bound
    is strictly above the best cost seen, which never drops below the
    optimum, so no subset that costs the optimum, tied or not, is cut off.
    """
    n = inst.n
    if n > OPT_LIMIT:
        raise InstanceTooLarge(n, OPT_LIMIT, "exact optimum")
    engine = CostEngine(inst)
    weights = [engine.W[u][v] for u, v in _all_pairs(n)]
    dist_floor = engine.q * sum(engine.host_dist_sum(u) for u in range(n))
    two_p = 2 * engine.p

    def price(key):  # the walk yields each key once, so no state is kept
        cost = engine.social_cost(key)
        engine.forget(key)
        return cost

    best_key = _minimum_spanning_tree(inst)
    best_cost = price(best_key)

    def spend_step(spend, j):
        spend += weights[j]
        return spend if two_p * spend + dist_floor <= best_cost else None

    for key, _ in connected_subgraphs(n, spend_step, 0):
        cost = price(key)
        if cost < best_cost or (cost == best_cost and key < best_key):
            best_cost = cost
            best_key = key
    return OptResult(
        network=Network(n=n, edges=best_key),
        cost=engine.to_cost(best_cost),
        proven=True,
    )


def _minimum_spanning_tree(inst):
    n = inst.n
    w = inst.host.weights
    edges = sorted(_all_pairs(n), key=lambda e: (w[e[0]][e[1]], e))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
    return canonical_edges(chosen)


def _best_star(engine):
    """The cheapest star. Every star costs (2n - 2 + 2 alpha) * w(E)
    (``model.star_social_cost``), so it is the lightest one, centred at
    the first node of least total link weight."""
    n, W = engine.n, engine.W
    center = min(range(n), key=lambda c: sum(W[c]))
    return canonical_edges((min(center, v), max(center, v)) for v in range(n) if v != center)


def _local_search(engine, start_key):
    """Steepest descent over single-edge adds, drops, and swaps.

    Each step takes the cheapest move, the first in canonical order among
    ties: adds, then per dropped edge e its drop and its swaps e -> f. A
    swap's network G - e + f is a subgraph of G + f that pays for one edge
    less, so ``cost(G - e + f) >= cost(G + f) - 2p * W(e)``, where
    ``cost(G + f)`` is the add cost this step has already computed (when
    it is infinite, G - e + f is disconnected too). A swap whose bound is
    at least the best cost so far is skipped unpriced: it cannot strictly
    improve on that cost, and the best cost only falls during the step, so
    the move each step picks, and the result, stay the same.

    A drop's rows are not computed afresh: ``fill_after_remove`` fills the
    empty rows of G - e from G's, and the swaps after it price G - e + f
    from those rows. When e = uv is a bridge, G - e falls into its two sides,
    which u's new row tells apart (finite on u's side, ``inf`` on v's),
    and a swap f with both ends on one side leaves G - e + f
    disconnected. Its cost is ``inf``, which improves on no cost, so it is
    skipped unpriced too, and every descent stays the same.
    """
    pairs = _all_pairs(engine.n)
    two_p, W = 2 * engine.p, engine.W
    key = start_key
    cost = engine.social_cost(key)
    while True:
        best_cost, best_key = cost, key
        eset = set(key)
        spend = sum(W[a][b] for a, b in key)  # once per step: every add and swap reads it
        non_edges = [e for e in pairs if e not in eset]
        add_costs = []
        for e in non_edges:
            c = engine.social_after_add(key, e[0], e[1], spend)
            add_costs.append(c)
            if c < best_cost:
                best_cost, best_key = c, canonical_edges(eset | {e})
        for e in key:
            smaller = canonical_edges(eset - {e})
            near = engine.fill_after_remove(key, smaller, *e)[e[0]]
            c = engine.social_cost(smaller)
            if c < best_cost:
                best_cost, best_key = c, smaller
            bridge = is_inf(near[e[1]])
            dropped = two_p * W[e[0]][e[1]]
            for f, add_cost in zip(non_edges, add_costs):
                if add_cost - dropped >= best_cost:
                    continue
                if bridge and is_inf(near[f[0]]) == is_inf(near[f[1]]):
                    continue
                c2 = engine.social_after_add(smaller, f[0], f[1], spend - W[e[0]][e[1]])
                if c2 < best_cost:
                    best_cost, best_key = c2, canonical_edges((eset - {e}) | {f})
        if best_cost >= cost:
            return cost, key
        cost, key = best_cost, best_key


def _random_spanning_tree(n, rng):
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((min(nodes[i], nodes[j]), max(nodes[i], nodes[j])))
    return canonical_edges(edges)


def heuristic_opt(inst: Instance, seed: int = 0):
    """Connected upper bound on the optimum: best of MST, best star, and
    local search from each plus seeded random spanning trees.

    The returned cost is >= the true optimum by construction, so ratios
    computed against it underestimate the instance's true ratio.
    """
    engine = CostEngine(inst)
    rng = random.Random(parse_int(seed, "seed"))
    starts = [_minimum_spanning_tree(inst), _best_star(engine)]
    starts += [_random_spanning_tree(inst.n, rng) for _ in range(HEURISTIC_RESTARTS)]
    best_cost, best_key = None, None
    for start in starts:
        cost, key = _local_search(engine, start)
        if best_cost is None or cost < best_cost or (cost == best_cost and key < best_key):
            best_cost, best_key = cost, key
    return OptResult(
        network=Network(n=inst.n, edges=best_key),
        cost=engine.to_cost(best_cost),
        proven=False,
    )


def _require_stretch(inst: Instance, net: Network, stretch, what: str, diagnostics: dict):
    """Raise BoundViolation if ``net``'s stretch over the host is above
    alpha + 1, the bound on every stable network and on a proven optimum."""
    bound = inst.alpha + 1
    if is_inf(stretch) or stretch > bound:
        raise BoundViolation(
            f"{what} stretch {stretch} exceeds {bound}",
            diagnostics | {"edges": list(net.edges), "stretch": str(stretch)},
        )


def opt_spanner_check(inst: Instance, opt: OptResult):
    """Stretch of a proven optimum; raises BoundViolation above alpha + 1."""
    if not opt.proven:
        raise NotProvenOptimal("spanner guarantee only holds for proven optima")
    stretch = spanner_stretch(opt.network, inst.host)
    _require_stretch(inst, opt.network, stretch, "optimum", {"alpha": str(inst.alpha)})
    return stretch
