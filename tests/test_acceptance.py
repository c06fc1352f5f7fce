"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is a pure builder returning (ok, report-text); builders are
memoized for the assertion tests and re-executed from scratch for the
determinism criterion, which demands byte-identical reports. All
tolerances are exact (Fraction equality, zero slack) except where a
criterion is explicitly about recording an asymptotic-only quantity.
"""

import time
from fractions import Fraction as F
from math import isqrt

import pytest

import ncglab as L
from ncglab.properties import (
    check_single_removal_dominance,
    check_tree_distance_bound,
)

SEED = 2026


# -- criterion builders ---------------------------------------------------------


def build_c1():
    """zero_cluster fixtures: exhaustive bse stability and PoA exactly a+1."""
    lines = []
    ok = True
    slow = []
    for n in (4, 5, 6):
        for alpha in (F(1), F(2), F(5)):
            t0 = time.monotonic()
            fx = L.gen_general_bse(n, alpha)
            verdict = L.is_bse(fx.instance, fx.stable_net)
            point = L.poa_point(fx.instance, "bse")
            elapsed = time.monotonic() - t0
            good = (
                verdict.stable
                and point.opt_proven
                and point.complete
                and point.ratio == alpha + 1
            )
            ok &= good
            if elapsed > 60:
                slow.append((n, alpha, elapsed))
            lines.append(
                f"n={n} alpha={alpha}: bse={verdict.status} "
                f"ratio={point.ratio} complete={point.complete} ok={good}"
            )
    return ok and not slow, "\n".join(lines), slow


def build_c2():
    """two_tier_star ps fixtures: stability and the exact closed-form ratio."""
    lines = []
    ok = True
    for n in range(5, 11):
        for alpha in (F(4), F(8), F(16)):
            fx = L.gen_metric_star(n, alpha, "ps")
            verdict = L.is_pairwise_stable(fx.instance, fx.stable_net)
            expected = 1 + F(n - 2) / ((n - 2) * F(2) / alpha + 1)
            measured = (
                L.cost_report(fx.instance, fx.stable_net).social_total
                / L.cost_report(fx.instance, fx.reference_net).social_total
            )
            good = verdict.stable and measured == expected == fx.expected_ratio
            ok &= good
            lines.append(
                f"n={n} alpha={alpha}: ps={verdict.status} ratio={measured} "
                f"expected={expected} ok={good}"
            )
    return ok, "\n".join(lines)


def build_c3():
    """two_tier_star bne fixtures: exhaustive stability, exact ratio."""
    lines = []
    ok = True
    for n in range(5, 9):
        for alpha in (F(4), F(16), F(36)):
            fx = L.gen_metric_star(n, alpha, "bne")
            verdict = L.is_bne(fx.instance, fx.stable_net)
            root = F(isqrt(int(alpha)))
            expected = 1 + F(n - 2) / ((n - 2) * F(2) / root + 1)
            measured = (
                L.cost_report(fx.instance, fx.stable_net).social_total
                / L.cost_report(fx.instance, fx.reference_net).social_total
            )
            good = verdict.stable and measured == expected == fx.expected_ratio
            ok &= good
            lines.append(
                f"n={n} alpha={alpha}: bne={verdict.status} ratio={measured} ok={good}"
            )
    return ok, "\n".join(lines)


def build_c4():
    """two_tier_star bse fixtures: stability within budget, exact ratio."""
    lines = []
    ok = True
    budget = L.Budget(max_moves=5_000_000)
    for n in (5, 6):
        for alpha in (F(25), F(36)):
            fx = L.gen_metric_star(n, alpha, "bse")
            verdict = L.is_bse(fx.instance, fx.stable_net, budget=budget)
            expected = 1 + F(n - 2) / (2 * n * (n - 2) / alpha + 1)
            measured = (
                L.cost_report(fx.instance, fx.stable_net).social_total
                / L.cost_report(fx.instance, fx.reference_net).social_total
            )
            good = verdict.stable and measured == expected == fx.expected_ratio
            ok &= good
            lines.append(
                f"n={n} alpha={alpha}: bse={verdict.status} "
                f"evals={verdict.moves_evaluated} ratio={measured} ok={good}"
            )
    return ok, "\n".join(lines)


def _cluster_path_oracle(n, alpha):
    """Hand-derived costs by direct distance summation over the construction."""
    x = isqrt(int(alpha)) // 2
    pos = [i if i < x else 0 for i in range(n)]  # cluster rides at the head
    stable_dist = sum(abs(pos[u] - pos[v]) for u in range(n) for v in range(n))
    stable_cost = 2 * alpha * (x - 1) + stable_dist

    def head_weight(j):
        return 0 if j == 0 else (1 if j == 1 else 2)

    # every reference route runs through the head star, so a pair's
    # distance is the sum of the two spoke weights
    ref_dist = sum(
        head_weight(pos[u]) + head_weight(pos[v])
        for u in range(n)
        for v in range(n)
        if u != v
    )
    ref_edge_weight = sum(head_weight(j) for j in range(1, x))
    ref_cost = 2 * alpha * ref_edge_weight + ref_dist
    return F(stable_cost), F(ref_cost)


def build_c5():
    """cluster_path fixtures: bse stability, costs equal the oracle, ratio
    certified asymptotic-only (recorded, never asserted numerically)."""
    lines = []
    ok = True
    budget = L.Budget(max_moves=5_000_000)
    for n in (6, 7):
        alpha = F(36)
        fx = L.gen_metric_path(n, alpha)
        verdict = L.is_bse(fx.instance, fx.stable_net, budget=budget)
        stable_cost = L.cost_report(fx.instance, fx.stable_net).social_total
        ref_cost = L.cost_report(fx.instance, fx.reference_net).social_total
        oracle_stable, oracle_ref = _cluster_path_oracle(n, alpha)
        good = (
            verdict.stable
            and stable_cost == oracle_stable
            and ref_cost == oracle_ref
            and fx.ratio_is_asymptotic_only
        )
        ok &= good
        lines.append(
            f"n={n} alpha={alpha}: bse={verdict.status} cost={stable_cost} "
            f"(oracle {oracle_stable}) reference={ref_cost} (oracle {oracle_ref}) "
            f"ratio-recorded={stable_cost / ref_cost} ok={good}"
        )
    return ok, "\n".join(lines)


def _c6_instances():
    """50 uniform + 50 tree-metric instances, n <= 5, alpha cycling the grid."""
    alphas = (F(1, 2), F(1), F(2), F(5))
    plan = []
    for model in ("uniform", "tree"):
        for i in range(50):
            n = 3 + i % 3
            alpha = alphas[i % 4]
            plan.append((model, i, n, alpha))
    return plan


def build_c6_c9():
    """Universal bounds over 100 seeded instances plus nested stable sets.

    The criterion pair shares one enumeration pass: criterion 6 checks the
    proven bounds with zero slack, criterion 9 checks bse set inside bne
    set inside ps set on every instance (with an independent unfiltered
    cross-check on the first instances of each family).
    """
    lines = []
    ok6 = True
    ok9 = True
    violations = []
    for model, seed, n, alpha in _c6_instances():
        inst = L.random_instance(n, model, seed, alpha)
        metric = L.is_metric(inst.host).is_metric
        if model == "tree":
            ok6 &= metric
        ps = L.enumerate_stable(inst, "ps")
        bne = L.enumerate_stable(inst, "bne")
        bse = L.enumerate_stable(inst, "bse")
        opt = L.brute_force_opt(inst)
        label = f"{model}(seed={seed},n={n},alpha={alpha})"

        ratio = None
        if ps.worst_cost is not None:
            ratio = ps.worst_cost / opt.cost
            if ratio > 2 * (alpha + 1):
                violations.append(f"{label}: ratio {ratio} > 2(alpha+1)")
            if metric and ratio > min(alpha + 1, F(2 * (n - 1))):
                violations.append(f"{label}: metric ratio {ratio} over cap")
        for net in ps.networks:
            report = L.cost_report(inst, net)
            edge_total = sum(report.edge_costs) / 2
            dist_total = sum(report.distance_costs)
            if edge_total > (2 * alpha / (n - 1) + 1) * dist_total:
                violations.append(f"{label}: edge-cost bound broken on {net.edges}")
            if metric:
                stretch = L.spanner_stretch(net, inst.host)
                if L.is_inf(stretch) or stretch > alpha + 1:
                    violations.append(f"{label}: stretch {stretch} on {net.edges}")
        opt_stretch = L.opt_spanner_check(inst, opt)  # raises on violation
        ps_set = {g.edges for g in ps.networks}
        bne_set = {g.edges for g in bne.networks}
        bse_set = {g.edges for g in bse.networks}
        nested = bse_set <= bne_set <= ps_set
        ok9 &= nested
        lines.append(
            f"{label}: metric={metric} ps={len(ps_set)} bne={len(bne_set)} "
            f"bse={len(bse_set)} ratio={ratio} opt_stretch={opt_stretch} nested={nested}"
        )
    ok6 &= not violations

    # independent cross-check: the containment filter changes nothing
    for model in ("uniform", "tree"):
        for seed in range(4):
            n = 3 + seed % 2
            inst = L.random_instance(n, model, seed, F(2))
            for concept in ("bne", "bse"):
                filtered = L.enumerate_stable(inst, concept, use_containment=True)
                direct = L.enumerate_stable(inst, concept, use_containment=False)
                same = {g.edges for g in filtered.networks} == {
                    g.edges for g in direct.networks
                }
                ok9 &= same
                lines.append(
                    f"crosscheck {model}(seed={seed},n={n}) {concept}: filter-free match={same}"
                )
    report = "\n".join(lines + (["VIOLATIONS:"] + violations if violations else []))
    return ok6, ok9, report


def build_c7():
    result = check_single_removal_dominance(SEED, 10_000)
    ok = result.failures == 0 and result.trials == 10_000
    report = f"trials={result.trials} failures={result.failures}"
    if result.counterexample:
        report += f"\ncounterexample: {result.counterexample}"
    return ok, report


def build_c8():
    result = check_tree_distance_bound(SEED, 1_000)
    ok = result.failures == 0 and result.trials == 1_000
    report = f"trials={result.trials} failures={result.failures}"
    if result.counterexample:
        report += f"\ncounterexample: {result.counterexample}"
    return ok, report


def build_c11():
    """Boundary exactness: the cheap-link purchase nets exactly zero."""
    fx = L.gen_general_bse(4, F(2))
    move = L.Move.make((1, 3), additions=[(1, 3)], concept="ps")
    deltas = dict(L.move_deltas(fx.instance, fx.stable_net, move))
    improving = L.is_improving(fx.instance, fx.stable_net, move)
    ps = L.is_pairwise_stable(fx.instance, fx.stable_net)
    ok = deltas[1] == F(0) and not improving and ps.stable
    report = (
        f"delta(cluster buyer)={deltas[1]} delta(remote)={deltas[3]} "
        f"improving={improving} ps={ps.status}"
    )
    return ok, report


BUILDERS = {
    "c1": lambda: build_c1()[:2],
    "c2": build_c2,
    "c3": build_c3,
    "c4": build_c4,
    "c5": build_c5,
    "c6c9": lambda: build_c6_c9(),
    "c7": build_c7,
    "c8": build_c8,
    "c11": build_c11,
}


@pytest.fixture(scope="module")
def runs():
    return {}


def _memo(runs, key):
    if key not in runs:
        runs[key] = BUILDERS[key]()
    return runs[key]


def _announce(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_zero_cluster_bse_and_poa(runs):
    ok, report = _memo(runs, "c1")
    _announce("C1 zero_cluster bse stability and exact PoA", ok)
    assert ok, report


def test_criterion_01_runtime_within_budget():
    ok, _report, slow = build_c1()
    assert ok and not slow, f"combos over 60s: {slow}"


def test_criterion_02_star_ps_ratios(runs):
    ok, report = _memo(runs, "c2")
    _announce("C2 two_tier_star ps stability and exact ratios", ok)
    assert ok, report


def test_criterion_03_star_bne_ratios(runs):
    ok, report = _memo(runs, "c3")
    _announce("C3 two_tier_star bne stability and exact ratios", ok)
    assert ok, report


def test_criterion_04_star_bse_ratios(runs):
    ok, report = _memo(runs, "c4")
    _announce("C4 two_tier_star bse stability and exact ratios", ok)
    assert ok, report


def test_criterion_05_cluster_path_costs(runs):
    ok, report = _memo(runs, "c5")
    _announce("C5 cluster_path bse stability and oracle costs", ok)
    assert ok, report


def test_criterion_06_bound_universality(runs):
    ok6, _ok9, report = _memo(runs, "c6c9")
    _announce("C6 universal upper bounds, zero violations", ok6)
    assert ok6, report


def test_criterion_07_single_removal_property(runs):
    ok, report = _memo(runs, "c7")
    _announce("C7 single-removal dominance, 10^4 trials", ok)
    assert ok, report


def test_criterion_08_tree_distance_property(runs):
    ok, report = _memo(runs, "c8")
    _announce("C8 shortest-path-tree bound, 10^3 trials", ok)
    assert ok, report


def test_criterion_09_containment(runs):
    _ok6, ok9, report = _memo(runs, "c6c9")
    _announce("C9 stable-set containment", ok9)
    assert ok9, report


def test_criterion_10_byte_identical_reports(runs):
    fresh = {key: BUILDERS[key]() for key in BUILDERS}
    same = all(_memo(runs, key) == fresh[key] for key in BUILDERS)
    _announce("C10 byte-identical reruns", same)
    for key in BUILDERS:
        assert _memo(runs, key) == fresh[key], f"criterion {key} report drifted"


def test_criterion_11_boundary_exactness(runs):
    ok, report = _memo(runs, "c11")
    _announce("C11 exact zero-delta classification", ok)
    assert ok, report
