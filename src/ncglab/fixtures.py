"""Executable lower-bound constructions and their verification.

Each generator returns a Fixture: an instance, a claimed-stable network, a
cheap reference network, and the closed-form cost ratio between them. The
generators encode reconstructions reverse-engineered from the constructions'
cost arithmetic; verify_fixture is the authority and must confirm stability
and the exact ratio, so a failing fixture signals a broken reconstruction
and is never patched silently. What each family claims (its concepts,
an exact or asymptotic-only ratio, a metric host) lives in FAMILIES alone.

Families:
  * zero_cluster: a free clique of n-1 agents plus one remote agent whose
    direct link to the cluster's designated buyer is priced at alpha + 1
    while everyone else could reach it at weight 1. In the expensive
    stable network the overpriced link is bought; buying any weight-1
    link costs its buyer exactly what it saves, so nobody moves. Ratio
    alpha + 1, not metric.
  * two_tier_star: metric closure of a star with one leaf at weight a and
    n-2 leaves at weight b; the stable network is the star re-centered at
    the weight-a leaf. The (a, b) pair decides which cooperation level
    the network survives: (1, 2/alpha) for ps, (1, 2/sqrt(alpha)) for
    bne, (1/n, 2/alpha) for bse.
  * cluster_path: a free cluster attached to a short path of unit steps
    (skip links cost 2); the stable network keeps the path strung out,
    the reference network stars everything at the path's head. The cost
    ratio here is certified asymptotic-only: only the exact costs and
    stability are claimed at desk scale.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlphaNotSquare, LabInputError
from .model import (
    Instance,
    Network,
    cost_report,
    is_metric,
    metric_closure,
    validate_host,
)
from .optimum import brute_force_opt
from .scalars import cost_ratio, parse_alpha, parse_int, parse_rational, sqrt_exact
from .stability import BNE, BSE, PS, Budget, check


@dataclass(frozen=True)
class Family:
    """What a fixture family claims; no fixture or bundle restates it."""

    concepts: tuple  # the concepts it may claim, the default first
    asymptotic_only: bool  # its cost ratio is not claimed exactly at desk scale
    requires_metric: bool  # its host must satisfy the triangle inequality


FAMILIES = {
    "zero_cluster": Family((BSE,), asymptotic_only=False, requires_metric=False),
    "two_tier_star": Family((PS, BNE, BSE), asymptotic_only=False, requires_metric=True),
    "cluster_path": Family((BSE,), asymptotic_only=True, requires_metric=True),
}

# verify_fixture proves the optimum only up to this n, one below
# optimum.OPT_LIMIT: zero-weight links defeat brute_force_opt's spend
# prune. At n=7 on a 2.0 GHz Xeon, zero_cluster (alpha 2, 5) and
# cluster_path (alpha 16, 25) took 4.3-5.3 s of CPU each, in 16 MB, while
# two_tier_star and cluster_path at alpha 36 and 49 took at most 0.2 s.
VERIFY_OPT_LIMIT = 6


def _family(name) -> Family:
    if name not in FAMILIES:
        raise LabInputError(f"unknown fixture family {name!r}; know {tuple(FAMILIES)}")
    return FAMILIES[name]


@dataclass(frozen=True)
class Fixture:
    """A family's instance, networks and ratio; the family fixes the rest."""

    family: str
    instance: Instance
    stable_net: Network
    reference_net: Network
    claimed_concept: str
    expected_ratio: Fraction

    def __post_init__(self):
        ratio = parse_rational(self.expected_ratio, "expected_ratio")
        object.__setattr__(self, "expected_ratio", ratio)
        concepts = _family(self.family).concepts
        if self.claimed_concept not in concepts:
            raise LabInputError(
                f"{self.family} claims no {self.claimed_concept!r} concept; know {concepts}"
            )

    @property
    def ratio_is_asymptotic_only(self) -> bool:
        return FAMILIES[self.family].asymptotic_only

    @property
    def requires_metric(self) -> bool:
        return FAMILIES[self.family].requires_metric


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FixtureReport:
    checks: tuple
    stability: str  # the claimed concept's verdict on the stable network

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def render(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"{status} {c.name}{detail}")
        return "\n".join(lines)


def gen_general_bse(n: int, alpha: Fraction) -> Fixture:
    """zero_cluster fixture: ratio alpha + 1 survives full cooperation.

    Nodes 0..n-2 form the zero-weight cluster, node n-1 is remote:
    w(0, n-1) = alpha + 1 and w(i, n-1) = 1 for the other cluster nodes.
    """
    parse_int(n, "zero_cluster n", least=3)
    alpha = parse_alpha(alpha)
    remote = n - 1
    w = [[Fraction(0)] * n for _ in range(n)]
    w[0][remote] = w[remote][0] = alpha + 1
    for i in range(1, remote):
        w[i][remote] = w[remote][i] = Fraction(1)
    inst = Instance(host=validate_host(w), alpha=alpha)
    cluster_tree = [(0, i) for i in range(1, remote)]
    stable = Network.from_pairs(n, cluster_tree + [(0, remote)])
    reference = Network.from_pairs(n, cluster_tree + [(1, remote)])
    return Fixture(
        family="zero_cluster",
        instance=inst,
        stable_net=stable,
        reference_net=reference,
        claimed_concept=BSE,
        expected_ratio=alpha + 1,
    )


def _star_ratio(n, a, b):
    # ((n-2)(a+b) + a) / ((n-2) b + a)
    return ((n - 2) * (a + b) + a) / ((n - 2) * b + a)


def gen_metric_star(n: int, alpha: Fraction, variant: str = PS) -> Fixture:
    """two_tier_star fixture: node 0 is the heavy leaf, 1 the old center."""
    parse_int(n, "two_tier_star n", least=4)
    alpha = parse_alpha(alpha)  # before any Instance: the tier weights divide by alpha
    if variant == PS:
        a, b = Fraction(1), 2 / alpha
    elif variant == BNE:
        root = sqrt_exact(alpha)
        if root is None:
            raise AlphaNotSquare(f"bne variant needs a square alpha, got {alpha}")
        a, b = Fraction(1), 2 / root
    elif variant == BSE:
        a, b = Fraction(1, n), 2 / alpha
    else:
        raise LabInputError(f"unknown two_tier_star variant {variant!r}")
    seed_edges = [(1, 0, a)] + [(1, i, b) for i in range(2, n)]
    host = metric_closure(n, seed_edges)
    inst = Instance(host=host, alpha=alpha)
    stable = Network.from_pairs(n, [(0, 1)] + [(0, i) for i in range(2, n)])
    reference = Network.from_pairs(n, [(0, 1)] + [(1, i) for i in range(2, n)])
    return Fixture(
        family="two_tier_star",
        instance=inst,
        stable_net=stable,
        reference_net=reference,
        claimed_concept=variant,
        expected_ratio=_star_ratio(n, a, b),
    )


def gen_metric_path(n: int, alpha: Fraction) -> Fixture:
    """cluster_path fixture: path nodes 0..x-1, zero cluster x..n-1 glued to node 0.

    Path steps weigh 1, path skips weigh 2, and x = floor(sqrt(alpha)/2),
    so alpha must be an integer perfect square >= 16 (making x >= 2 exact)
    and at most n^2 (keeping the path inside the node budget).
    """
    parse_int(n, "cluster_path n")
    alpha = parse_alpha(alpha)
    root = sqrt_exact(alpha)
    if root is None or root.denominator != 1:
        raise AlphaNotSquare(f"cluster_path needs an integer square alpha, got {alpha}")
    if alpha < 16:
        raise LabInputError(f"cluster_path needs alpha >= 16, got {alpha}")
    if alpha > n * n:
        raise LabInputError(f"cluster_path needs alpha <= n^2, got alpha={alpha} n={n}")
    x = int(root) // 2
    w = [[Fraction(0)] * n for _ in range(n)]

    def setw(u, v, val):
        w[u][v] = w[v][u] = Fraction(val)

    for i in range(x):
        for j in range(i + 1, x):
            setw(i, j, 1 if j - i == 1 else 2)
    for c in range(x, n):
        for j in range(1, x):
            setw(c, j, 1 if j == 1 else 2)  # cluster sits at distance 0 from node 0
    inst = Instance(host=validate_host(w), alpha=alpha)
    stable = Network.from_pairs(
        n, [(0, c) for c in range(x, n)] + [(i, i + 1) for i in range(x - 1)]
    )
    reference = Network.from_pairs(
        n, [(0, c) for c in range(x, n)] + [(0, i) for i in range(1, x)]
    )
    stable_cost = cost_report(inst, stable).social_total
    reference_cost = cost_report(inst, reference).social_total
    return Fixture(
        family="cluster_path",
        instance=inst,
        stable_net=stable,
        reference_net=reference,
        claimed_concept=BSE,
        expected_ratio=stable_cost / reference_cost,
    )


def generate(family: str, n: int, alpha: Fraction, variant: str = None) -> Fixture:
    """``variant`` is the concept to claim, by default the family's first."""
    concepts = _family(family).concepts
    if variant is not None and variant not in concepts:
        raise LabInputError(f"{family} claims no {variant!r} variant; know {concepts}")
    if family == "zero_cluster":
        return gen_general_bse(n, alpha)
    if family == "two_tier_star":
        return gen_metric_star(n, alpha, variant or PS)
    return gen_metric_path(n, alpha)


def verify_fixture(fixture: Fixture, budget: Budget = None) -> FixtureReport:
    """Run every check the fixture claims: stability, costs, ratio, metricity.

    Up to ``VERIFY_OPT_LIMIT`` nodes, also proves the optimum and checks
    that the ratio against it is at least the ratio against the reference.
    """
    inst = fixture.instance
    checks = []

    def add(name, passed, detail=""):
        checks.append(FixtureCheck(name, passed, detail))

    costs = []
    for name, net in (("stable_net", fixture.stable_net), ("reference_net", fixture.reference_net)):
        report = cost_report(inst, net)
        costs.append(report.social_total)
        add(f"{name} connected", report.connected, f"social={report.social_total}")
    stable_cost, reference_cost = costs

    if fixture.requires_metric:
        mr = is_metric(inst.host)
        add("host metric", mr.is_metric, "" if mr.is_metric else f"violation {mr.violation}")

    verdict = check(inst, fixture.stable_net, fixture.claimed_concept, budget=budget)
    detail = verdict.status
    if verdict.unstable:
        detail += f" witness={verdict.witness}"
    if verdict.inconclusive:
        detail += f" frontier={verdict.frontier}"
    add(f"stable_net is {fixture.claimed_concept}-stable", verdict.stable, detail)

    ratio = cost_ratio(stable_cost, reference_cost)
    if fixture.ratio_is_asymptotic_only:
        add("cost ratio recorded (asymptotic-only claim)", True, f"ratio={ratio}")
    else:
        expected = fixture.expected_ratio
        add("cost ratio exact", ratio == expected, f"ratio={ratio} expected={expected}")

    if inst.n <= VERIFY_OPT_LIMIT:
        opt = brute_force_opt(inst)
        add(
            "optimum no cheaper than reference",
            opt.cost <= reference_cost,
            f"opt={opt.cost} reference={reference_cost}",
        )
        vs_opt = cost_ratio(stable_cost, opt.cost)
        add(
            "ratio vs proven optimum at least reference ratio",
            vs_opt >= ratio,
            f"vs_opt={vs_opt} vs_reference={ratio}",
        )
    return FixtureReport(checks=tuple(checks), stability=verdict.status)
