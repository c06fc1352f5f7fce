"""Exhaustive stable-set enumeration, price-of-anarchy measurement and
sweeps with bound checking.

Reports are pure functions of their configuration (no timestamps, no set
iteration), so repeated runs with the same seeds are byte-identical.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import EQUILIBRIUM, FIRST_FOUND, run_dynamics
from .engine import CostEngine
from .errors import BoundViolation, InstanceTooLarge, LabInputError
from .fixtures import FAMILIES, generate
from .model import Instance, Network, _stretch, cost_report, is_metric, shortest_distances
from .optimum import (
    _minimum_spanning_tree,
    _random_spanning_tree,
    _require_stretch,
    connected_subgraphs,
    opt_spanner_check,
    social_optimum,
)
from .randomgen import MODELS, random_instance
from .scalars import cost_ratio, format_rational, parse_alpha, parse_int, parse_list
from .stability import BNE, BSE, CONCEPTS, PS, Budget, _run_checker, ps_prefilter
from .stability import require_budget, require_concept

# Full ps and bne enumeration at n=7 takes about 20 s on a random tree
# host; at n=8 the walk visits 128 times as many edge sets.
ENUM_LIMITS = {PS: 7, BNE: 7, BSE: 6}
# Beyond ENUM_LIMITS, the worst stable cost is sampled from this many
# seeded random spanning trees (besides the MST and the complete network),
# each run for at most this many ps dynamics steps.
_SAMPLED_STARTS = 4
_SAMPLED_MAX_STEPS = 300


@dataclass(frozen=True)
class EnumerationResult:
    concept: str
    networks: tuple  # all stable networks, or None in worst-only mode
    worst: Network
    worst_cost: Fraction
    complete: bool
    # connected candidates the walk visited, refuted or checked: the same
    # in both modes, however early worst-only mode stops checking
    checked: int
    inconclusive: int


def enumerate_stable(
    inst: Instance,
    concept: str,
    budget: Budget = None,
    worst_only: bool = False,
    use_containment: bool = True,
) -> EnumerationResult:
    """Check every connected subgraph with the concept's checker.

    Stable sets and worst costs range over connected networks by contract:
    a disconnected profile has infinite social cost, so admitting it would
    make every anarchy ratio degenerate. (Under strict-improvement
    semantics a disconnected network can pass the pairwise check when no
    single addition makes anyone finite; such states are excluded here but
    the point checkers still judge them literally when asked directly.)

    Candidates come from one ``connected_subgraphs`` walk that carries
    each network's exact distance rows (``stability.ps_prefilter``), so
    every social cost is read off the walk. Containment filtering is an
    optimization; disable it to cross-validate the checkers independently.
    It drops a candidate that the ps prefilter refutes, as no bne- or
    bse-stable network fails it either, and then runs the checkers ps, bne
    and bse in turn up to the concept, stopping at the first that does
    not find the candidate stable. Without it, each candidate goes to the
    concept's checker alone. ``checked`` counts every connected candidate
    the walk visits, refuted or checked, in both modes.

    Full mode streams the surviving candidates from the walk in edge-tuple
    order, never holding them in one list. Worst-only mode holds the
    survivors' keys and costs, not their distance rows, and checks them in
    descending cost order, stopping at the first stable network, which is
    then the worst.
    """
    require_concept(concept)
    limit = ENUM_LIMITS[concept]
    if inst.n > limit:
        raise InstanceTooLarge(inst.n, limit, f"{concept} enumeration")
    engine = CostEngine(inst)
    chain = CONCEPTS[: CONCEPTS.index(concept) + 1] if use_containment else (concept,)
    root, step = ps_prefilter(engine)
    two_p, q = 2 * engine.p, engine.q
    checked = 0

    def survivors():
        nonlocal checked
        for key, (_, sums, _, spend, refuted) in connected_subgraphs(inst.n, step, root):
            checked += 1
            if not (use_containment and refuted):
                yield key, two_p * spend + q * sum(sums)

    candidates = survivors()
    if worst_only:
        candidates = sorted(candidates, key=lambda c: (-c[1], c[0]))
    stable = []
    inconclusive = 0
    worst = worst_cost = None
    for key, cost in candidates:
        net = Network(n=inst.n, edges=key)
        for level in chain:
            verdict = _run_checker(inst, net, level, budget, engine)
            if not verdict.stable:
                break
        if verdict.inconclusive:
            inconclusive += 1
        elif verdict.stable:
            stable.append(net)
            if worst_cost is None or cost > worst_cost:
                worst, worst_cost = net, cost
            if worst_only:
                break
    return EnumerationResult(
        concept=concept,
        networks=None if worst_only else tuple(stable),
        worst=worst,
        worst_cost=None if worst_cost is None else engine.to_cost(worst_cost),
        complete=inconclusive == 0,
        checked=checked,
        inconclusive=inconclusive,
    )


@dataclass(frozen=True)
class PoaPoint:
    label: str
    concept: str
    n: int
    alpha: Fraction
    worst_cost: Fraction  # None when no stable network was found
    opt_cost: Fraction
    opt_proven: bool
    ratio: Fraction  # None when no stable network was found; inf over a zero optimum
    complete: bool  # True only when every subgraph was accounted for

    @property
    def stable_found(self):
        return self.worst_cost is not None


def _sampled_worst(inst, concept, budget, seed):
    """Fallback beyond enumeration limits: worst certified endpoint of
    seeded improving-response runs. Never complete.

    The walk itself uses single-move (ps) dynamics, which stays cheap even
    on dense intermediate networks; the endpoint is then certified with the
    requested concept's checker. Since stronger concepts only shrink the
    stable set, an endpoint that passes is a genuine stable network.
    """
    rng = random.Random(seed)
    n = inst.n
    engine = CostEngine(inst)
    nets = [Network(n=n, edges=_minimum_spanning_tree(inst)), Network.complete(n)]
    for _ in range(_SAMPLED_STARTS):
        nets.append(Network(n=n, edges=_random_spanning_tree(n, rng)))
    worst = None
    worst_cost = None
    for start in nets:
        trace = run_dynamics(inst, start, PS, FIRST_FOUND, _SAMPLED_MAX_STEPS)
        if trace.outcome != EQUILIBRIUM:
            continue
        if concept != PS:
            certify = budget or Budget(max_moves=200_000)
            verdict = _run_checker(inst, trace.final, concept, certify, engine)
            if not verdict.stable:
                continue  # refuted or uncertifiable within budget: not usable
        cost = engine.social_cost(trace.final.edges)
        if worst_cost is None or cost > worst_cost:
            worst, worst_cost = trace.final, cost
    if worst is None:
        return None, None
    return worst, engine.to_cost(worst_cost)


def poa_point(
    inst: Instance,
    concept: str,
    budget: Budget = None,
    label: str = "",
) -> PoaPoint:
    """Worst stable cost over proven (or heuristic) optimum cost.

    The worst stable cost is enumerated up to ``ENUM_LIMITS`` nodes (7 for
    ps and bne, 6 for bse). Beyond them it is the costliest of a few
    sampled endpoints, each certified stable, and the point says
    ``complete=False``: its ratio is then a lower bound on the host's
    price of anarchy, not the price itself.

    The ratio is exact whenever both sides are; when the optimum is
    heuristic the reported ratio underestimates the true one.
    """
    point, _, _ = _measure_poa(
        inst, concept, worst_only=True, budget=budget, label=label, seed=0
    )
    return point


def _measure_poa(inst, concept, *, worst_only, budget, label, seed):
    """The one PoA path behind ``poa_point`` and ``poa_sweep``.

    The worst stable cost comes from enumeration up to the concept's limit
    in ``ENUM_LIMITS`` (worst-only, or full when the caller needs the
    stable set) and from sampled dynamics beyond it. A sampled worst is
    the costliest certified stable endpoint found, so its ratio is a lower
    bound on the host's price of anarchy, and the point is not complete.
    The optimum is ``social_optimum``'s. The
    ratio is ``cost_ratio``'s: a zero optimum (zero-weight links spanning
    the host) gives 1 against a zero worst cost and ``inf`` otherwise.
    Returns the point, the ``OptResult`` and the stable networks (None
    unless fully enumerated).
    """
    require_concept(concept)
    if inst.n <= ENUM_LIMITS[concept]:
        enum = enumerate_stable(inst, concept, budget=budget, worst_only=worst_only)
        worst_cost, complete, stable_nets = enum.worst_cost, enum.complete, enum.networks
    else:
        _, worst_cost = _sampled_worst(inst, concept, budget, seed)
        complete, stable_nets = False, None
    opt = social_optimum(inst, seed=seed)
    ratio = None if worst_cost is None else cost_ratio(worst_cost, opt.cost)
    point = PoaPoint(
        label=label,
        concept=concept,
        n=inst.n,
        alpha=inst.alpha,
        worst_cost=worst_cost,
        opt_cost=opt.cost,
        opt_proven=opt.proven,
        ratio=ratio,
        complete=complete,
    )
    return point, opt, stable_nets


@dataclass(frozen=True)
class SweepConfig:
    """One experiment grid: an instance family crossed with n and alpha."""

    family: str  # "random" or a fixture family
    concept: str
    n_values: tuple
    alphas: tuple  # Fractions
    model: str = "uniform"  # random family only
    count: int = 1  # instances per (n, alpha) cell, random family only
    seed: int = 0
    variant: str = None  # fixture families: a concept the family claims
    budget: Budget = None

    def __post_init__(self):
        alphas = parse_list(self.alphas, "sweep alphas")
        object.__setattr__(self, "alphas", tuple(parse_alpha(a) for a in alphas))
        n_values = parse_list(self.n_values, "sweep n_values")
        object.__setattr__(self, "n_values", tuple(parse_int(n, "sweep n") for n in n_values))
        parse_int(self.count, "sweep count", least=1)
        parse_int(self.seed, "sweep seed")
        if self.family != "random" and self.family not in FAMILIES:
            raise LabInputError(f"unknown family {self.family!r}")
        if self.model not in MODELS:
            raise LabInputError(f"unknown model {self.model!r}; know {MODELS}")
        if self.family == "random" and self.variant is not None:
            raise LabInputError("variant applies to fixture families only, not random")
        require_budget(self.budget)
        require_concept(self.concept)


@dataclass(frozen=True)
class SweepRow:
    """What one grid cell measured. ``poa_sweep`` raises on a failed bound
    check, so a bound column reads ``ok`` exactly when its check ran: the
    ratio caps given a ratio (the metric cap on metric hosts), the network
    bounds given listed stable networks, opt-stretch given a proven optimum."""

    point: PoaPoint
    metric: bool
    stable_count: int  # -1 when the full set was not materialized
    expected_ratio: Fraction = None  # fixture families
    bse_distance_advisory: str = None  # recorded only, asymptotic constant


def _check_network_bounds(inst, net, diagnostics):
    """Proven per-network facts for stable networks, both read off one
    distance run; raises BoundViolation."""
    dist = shortest_distances(net, inst.host).dist
    _require_stretch(inst, net, _stretch(dist, inst.host), "stable network", diagnostics)
    edge_total = inst.alpha * sum(inst.host.weights[u][v] for u, v in net.edges)
    dist_total = sum(map(sum, dist))
    if edge_total > (2 * inst.alpha / (inst.n - 1) + 1) * dist_total:
        raise BoundViolation(
            "stable network edge cost exceeds the distance-cost bound",
            diagnostics | {"edges": list(net.edges)},
        )


def _sweep_instances(cfg):
    """Every grid cell as (label, instance, expected_ratio), in grid order:
    n, then alpha, then the random family's ``count`` seeds, numbered on
    from ``cfg.seed``. Each generator refuses an n or alpha its family
    cannot take, so the list is complete only if every cell can run."""
    cells = []
    for n in cfg.n_values:
        for alpha in cfg.alphas:
            if cfg.family == "random":
                for _ in range(cfg.count):
                    seed = cfg.seed + len(cells)
                    label = f"{cfg.model}(seed={seed},n={n},alpha={alpha})"
                    cells.append((label, random_instance(n, cfg.model, seed, alpha), None))
            else:
                fixture = generate(cfg.family, n, alpha, cfg.variant)
                label = f"{cfg.family}(n={n},alpha={alpha})"
                expected = (
                    None if fixture.ratio_is_asymptotic_only else fixture.expected_ratio
                )
                cells.append((label, fixture.instance, expected))
    return cells


def poa_sweep(cfg: SweepConfig) -> "SweepReport":
    """Measure every grid cell and check the universal bounds on each row.

    The whole grid is built first (``_sweep_instances``), so a cell that
    its generator refuses raises ``LabInputError`` before any cell is
    measured. Violations of proven bounds raise BoundViolation with a
    diagnostic payload; the advisory strong-equilibrium distance-ratio
    constant is recorded but never enforced (it is asymptotic).
    """
    rows = []
    for label, inst, expected in _sweep_instances(cfg):
        metric = is_metric(inst.host).is_metric
        point, opt, stable_nets = _measure_poa(
            inst,
            cfg.concept,
            worst_only=False,
            budget=cfg.budget,
            label=label,
            seed=cfg.seed,
        )
        ratio = point.ratio
        diagnostics = {"label": label, "alpha": str(inst.alpha), "n": inst.n}
        if ratio is not None:
            if ratio > 2 * (inst.alpha + 1):
                raise BoundViolation(
                    f"{label}: ratio {ratio} exceeds 2(alpha+1)", diagnostics
                )
            cap = min(inst.alpha + 1, Fraction(2 * (inst.n - 1)))
            if metric and ratio > cap:
                raise BoundViolation(
                    f"{label}: metric ratio {ratio} exceeds {cap}", diagnostics
                )
        for net in stable_nets or ():
            _check_network_bounds(inst, net, diagnostics)
        if opt.proven:
            opt_spanner_check(inst, opt)
        advisory = None
        if cfg.concept == BSE and metric and stable_nets:
            engine = CostEngine(inst)
            worst_net = max(
                stable_nets,
                key=lambda g: (engine.social_cost(g.edges), tuple(reversed(g.edges))),
            )
            d_worst = sum(cost_report(inst, worst_net).distance_costs)
            d_opt = sum(cost_report(inst, opt.network).distance_costs)
            if d_opt > 0:
                measured = float(d_worst / d_opt)
                advisory = f"{measured:.3f}<=?{380 * float(inst.alpha) ** 0.5:.3f}"
        rows.append(
            SweepRow(
                point=point,
                metric=metric,
                stable_count=-1 if stable_nets is None else len(stable_nets),
                expected_ratio=expected,
                bse_distance_advisory=advisory,
            )
        )
    return SweepReport(config=cfg, rows=tuple(rows))


def _fmt(x):
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    return format_rational(x)  # a Fraction, an int or inf


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    rows: tuple

    def render(self) -> str:
        cfg = self.config
        lines = [
            f"sweep family={cfg.family} concept={cfg.concept} model={cfg.model} "
            f"seed={cfg.seed} count={cfg.count}",
            "label | n | alpha | worst | opt | proven | ratio | complete | metric | "
            "stable# | 2(a+1) | metric-cap | stretch | edge-cost | opt-stretch | "
            "expected | bse-advisory",
        ]
        for r in self.rows:
            p = r.point
            rated, listed = p.ratio is not None, r.stable_count > 0
            ran = (rated, rated and r.metric, listed, listed, p.opt_proven)
            lines.append(
                " | ".join(
                    [
                        p.label,
                        str(p.n),
                        format_rational(p.alpha),
                        _fmt(p.worst_cost),
                        _fmt(p.opt_cost),
                        _fmt(p.opt_proven),
                        _fmt(p.ratio),
                        _fmt(p.complete),
                        _fmt(r.metric),
                        str(r.stable_count),
                        *("ok" if check else "n/a" for check in ran),
                        _fmt(r.expected_ratio),
                        r.bse_distance_advisory or "-",
                    ]
                )
            )
        return "\n".join(lines)

    def render_jsonl(self) -> str:
        import json

        out = []
        for r in self.rows:
            p = r.point
            out.append(
                json.dumps(
                    {
                        "label": p.label,
                        "concept": p.concept,
                        "n": p.n,
                        "alpha": format_rational(p.alpha),
                        "worst": _fmt(p.worst_cost),
                        "opt": _fmt(p.opt_cost),
                        "opt_proven": p.opt_proven,
                        "ratio": _fmt(p.ratio),
                        "complete": p.complete,
                        "metric": r.metric,
                        "stable_count": r.stable_count,
                        "expected_ratio": _fmt(r.expected_ratio),
                        "bse_advisory": r.bse_distance_advisory,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(out)
