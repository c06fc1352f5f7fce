import ast
import random
import re
import time
import tracemalloc
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import ncglab as L
import ncglab.harness as H
import ncglab.properties as P
import ncglab.stability as S
from ncglab.engine import CostEngine
from ncglab.errors import BoundViolation, InstanceTooLarge, LabInputError
from ncglab.optimum import OptResult, connected_subgraphs
from ncglab.randomgen import MODELS
from ncglab.properties import property_suite, shrink_counterexample


def zero_spanned_instance():
    """Zero-weight links span this host, so its optimum costs 0."""
    h = L.validate_host([[F(x) for x in r] for r in [[0, 0, 1], [0, 0, 0], [1, 0, 0]]])
    return L.Instance(host=h, alpha=F(1))


COUNTEREXAMPLE = re.compile(
    r"agent=(\d+) subset=(\[.*?\]) alpha=(\S+) weights=(\[.*\]) edges=(\[.*\])"
)


def printed_counterexample(text):
    """Agent, subset, instance and network of a printed dominance counterexample."""
    agent, subset, alpha, weights, edges = COUNTEREXAMPLE.fullmatch(text).groups()
    w = [[F(x) for x in row] for row in ast.literal_eval(weights)]
    inst = L.Instance(host=L.validate_host(w), alpha=F(alpha))
    net = L.Network.from_pairs(len(w), ast.literal_eval(edges))
    return int(agent), ast.literal_eval(subset), inst, net


def unit_instance(n, alpha):
    w = [[F(0) if u == v else F(1) for v in range(n)] for u in range(n)]
    return L.Instance(host=L.validate_host(w), alpha=F(alpha))


class TestEnumerateStable:
    def test_unit_triangle_alpha_one(self):
        # deleting an edge saves exactly its price, adding nets exactly
        # zero: every 2-edge path and the triangle itself sit at the
        # stability boundary, all with social cost 12
        inst = unit_instance(3, 1)
        result = L.enumerate_stable(inst, "ps")
        edge_sets = {net.edges for net in result.networks}
        assert edge_sets == {
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
            ((0, 1), (0, 2), (1, 2)),
        }
        assert result.worst_cost == F(12)
        assert result.complete

    def test_two_nodes_single_edge_only(self):
        for concept in L.CONCEPTS:
            result = L.enumerate_stable(unit_instance(2, 3), concept)
            assert {net.edges for net in result.networks} == {((0, 1),)}

    def test_zero_cluster_worst_matches_fixture(self):
        fx = L.gen_general_bse(4, F(2))
        result = L.enumerate_stable(fx.instance, "bse")
        assert result.worst_cost == F(30)
        assert fx.stable_net.edges in {net.edges for net in result.networks}

    def test_worst_only_agrees_with_full_enumeration(self):
        # full mode checks every survivor of the prefilter in walk order,
        # worst-only mode in descending cost order until the first stable
        # one: both must name the same worst network, and price it as the
        # Fraction oracle in model does
        cases = [(4, "uniform", seed, "bse", None) for seed in range(5)] + [
            (5, model, seed, concept, None)
            for concept in L.CONCEPTS
            for model in ("tree", "uniform")
            for seed in (0, 1)
        ]
        # inconclusive checks above the worst found leave both incomplete
        cases.append((5, "tree", 0, "ps", L.Budget(max_moves=10)))
        for n, model, seed, concept, budget in cases:
            inst = L.random_instance(n, model, seed, F(2))
            full = L.enumerate_stable(inst, concept, budget=budget)
            fast = L.enumerate_stable(inst, concept, budget=budget, worst_only=True)
            assert full.worst_cost == fast.worst_cost
            assert full.worst is not None
            assert full.worst.edges == fast.worst.edges
            assert full.complete == fast.complete == (budget is None)
            assert full.worst_cost == L.cost_report(inst, full.worst).social_total

    def test_worst_only_holds_no_more_than_full_mode(self):
        # worst-only mode sorts only the prefilter's survivors; sorting
        # every connected candidate peaked near five times full mode
        inst = L.random_instance(6, "uniform", 0, F(2))
        peaks = {}
        for worst_only in (False, True):
            tracemalloc.start()
            try:
                L.enumerate_stable(inst, "ps", worst_only=worst_only)
                peaks[worst_only] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] <= peaks[False]

    def test_containment_filter_matches_direct_checks(self):
        for seed in range(4):
            inst = L.random_instance(4, "tree", seed, F(3))
            for concept in ("bne", "bse"):
                filtered = L.enumerate_stable(inst, concept, use_containment=True)
                direct = L.enumerate_stable(inst, concept, use_containment=False)
                assert {g.edges for g in filtered.networks} == {
                    g.edges for g in direct.networks
                }

    def test_nested_stable_sets(self):
        for seed in range(5):
            inst = L.random_instance(4, "uniform", seed, F(3, 2))
            sets = {
                concept: {g.edges for g in L.enumerate_stable(inst, concept).networks}
                for concept in L.CONCEPTS
            }
            assert sets["bse"] <= sets["bne"] <= sets["ps"]

    def test_limits_enforced(self):
        # ps and bne at n=8 would walk 2^28 edge sets, about 45 minutes
        for n, concept in [(7, "bse"), (8, "ps"), (8, "bne")]:
            with pytest.raises(InstanceTooLarge):
                L.enumerate_stable(unit_instance(n, 1), concept)

    def test_budget_inconclusive_drops_completeness(self):
        fx = L.gen_general_bse(4, F(2))
        result = L.enumerate_stable(fx.instance, "bse", budget=L.Budget(max_moves=1))
        assert not result.complete
        assert result.inconclusive > 0


def with_zero_links(inst, seed):
    """A copy of inst with about a third of its host links, chosen by the seed, at weight 0."""
    rng = random.Random(seed)
    n = inst.n
    w = [list(row) for row in inst.host.weights]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 1 / 3:
                w[u][v] = w[v][u] = F(0)
    return L.Instance(host=L.validate_host(w), alpha=inst.alpha)


def summary(result):
    """What an enumeration reports, but its inconclusive count, as comparable values."""
    networks = None if result.networks is None else tuple(g.edges for g in result.networks)
    worst = None if result.worst is None else result.worst.edges
    return (networks, worst, result.worst_cost, result.checked, result.complete)


def prefilter_hosts(n_values):
    """Random hosts, some with zero-weight links, zero_cluster hosts, and
    unit-weight hosts at alpha 1, where adding or deleting an edge often
    ties exactly."""
    out = []
    for n in n_values:
        for model in MODELS:
            for k, alpha in enumerate((F(1, 2), F(1), F(2), F(5))):
                inst = L.random_instance(n, model, 7 * n + k, alpha)
                if k % 2:
                    inst = with_zero_links(inst, f"{model}:{n}:{k}")
                out.append(inst)
        if n < 5:  # bse at n=5 checks hundreds of tied networks: 12 s
            out.append(unit_instance(n, 1))
        if n > 2:
            out.append(L.gen_general_bse(n, F(2)).instance)  # zero_cluster
    return out


class TestPsPrefilter:
    """The ps prefilter of ``enumerate_stable`` against its own absence."""

    @staticmethod
    def enumerate_both(monkeypatch, inst, concept, **kwargs):
        """(prefilter on, prefilter off, refutations made while on)."""
        refutes = S._refutes_ps
        refuted = []

        def counting(*args):
            out = refutes(*args)
            refuted.append(out)
            return out

        with monkeypatch.context() as m:
            m.setattr(S, "_refutes_ps", counting)
            on = L.enumerate_stable(inst, concept, **kwargs)
            m.setattr(S, "_refutes_ps", lambda *args: False)
            off = L.enumerate_stable(inst, concept, **kwargs)
        return on, off, sum(refuted)

    def test_prefilter_off_changes_no_enumeration(self, monkeypatch):
        fired = 0
        for inst in prefilter_hosts(range(2, 6)):
            for concept in L.CONCEPTS:
                for worst_only in (False, True):
                    on, off, refuted = self.enumerate_both(
                        monkeypatch, inst, concept, worst_only=worst_only
                    )
                    assert summary(on) == summary(off)
                    fired += refuted
        assert fired > 0

    def test_prefilter_off_changes_no_enumeration_at_n6(self, monkeypatch):
        # full mode with every concept's chain on a host with zero-weight
        # links, worst-only mode on zero_cluster and on a unit host at
        # alpha 1; each enumeration without the prefilter takes seconds
        cases = [(with_zero_links(L.random_instance(6, "tree", 3, F(2)), "n6"), "bse", False)]
        cases += [(L.gen_general_bse(6, F(2)).instance, c, True) for c in L.CONCEPTS]
        cases += [(unit_instance(6, 1), "ps", True)]
        for inst, concept, worst_only in cases:
            on, off, refuted = self.enumerate_both(
                monkeypatch, inst, concept, worst_only=worst_only
            )
            assert summary(on) == summary(off)
            assert refuted > 0

    def test_under_a_budget_only_inconclusive_falls(self, monkeypatch):
        fell = False
        for inst in prefilter_hosts((3, 4)):
            for concept in L.CONCEPTS:
                for worst_only in (False, True):
                    on, off, _ = self.enumerate_both(
                        monkeypatch,
                        inst,
                        concept,
                        worst_only=worst_only,
                        budget=L.Budget(max_moves=3),
                    )
                    assert summary(on)[:4] == summary(off)[:4]
                    assert on.inconclusive <= off.inconclusive
                    fell |= on.inconclusive < off.inconclusive
        assert fell

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 5),
        weights=st.lists(st.sampled_from((0, 0, 1, 1, 2, 3, 7)), min_size=10, max_size=10),
        alpha=st.sampled_from((F(1, 3), F(1), F(2), F(4))),
    )
    def test_every_refuted_candidate_is_pairwise_unstable(self, n, weights, alpha):
        w = [[F(0)] * n for _ in range(n)]
        for k, (u, v) in enumerate((u, v) for u in range(n) for v in range(u + 1, n)):
            w[u][v] = w[v][u] = F(weights[k])
        inst = L.Instance(host=L.validate_host(w), alpha=alpha)
        engine = CostEngine(inst)
        root, step = S.ps_prefilter(engine)
        for key, (_, _, _, _, refuted) in connected_subgraphs(n, step, root):
            if refuted:
                verdict = L.is_pairwise_stable(inst, L.Network(n=n, edges=key))
                assert verdict.unstable, key

    def test_checked_counts_every_connected_graph(self):
        # OEIS A001187, the candidates the walk visits: the prefilter, any
        # later cut of the walk and worst-only mode's early stop leave
        # this count alone
        for worst_only in (False, True):
            for n, count in zip(range(2, 6), (1, 4, 38, 728)):
                inst = L.random_instance(n, "tree", n, F(2))
                for concept in L.CONCEPTS:
                    result = L.enumerate_stable(inst, concept, worst_only=worst_only)
                    assert result.checked == count
            inst = L.random_instance(6, "tree", 3, F(2))
            result = L.enumerate_stable(inst, "ps", worst_only=worst_only)
            assert result.checked == 26_704


class TestPoaPoint:
    def test_zero_cluster_ratio_is_alpha_plus_one(self):
        fx = L.gen_general_bse(4, F(2))
        point = L.poa_point(fx.instance, "bse")
        assert point.ratio == F(3)
        assert point.complete
        assert point.opt_proven

    def test_star_fixture_ratio_at_least_reference(self):
        fx = L.gen_metric_star(6, F(4), "ps")
        point = L.poa_point(fx.instance, "ps")
        assert point.ratio >= F(7, 3)  # 1 + 4/(4*(1/2)+1)
        assert point.opt_proven

    def test_ratio_at_least_one_with_proven_opt(self):
        for seed in range(4):
            inst = L.random_instance(4, "tree", seed, F(2))
            point = L.poa_point(inst, "ps")
            if point.stable_found:
                assert point.ratio >= 1

    def test_zero_optimum_with_zero_worst_gives_ratio_one(self):
        point = L.poa_point(zero_spanned_instance(), "ps")
        assert (point.worst_cost, point.opt_cost, point.ratio) == (0, 0, 1)

    def test_zero_optimum_below_positive_worst_is_infinite(self, monkeypatch):
        # no host is known where a stable network costs more than a zero
        # optimum, so a stubbed optimum drives the branch
        inst = unit_instance(3, 1)
        zero = OptResult(network=L.Network.complete(3), cost=F(0), proven=True)
        monkeypatch.setattr(H, "social_optimum", lambda *a, **k: zero)
        assert L.is_inf(L.poa_point(inst, "ps").ratio)
        cfg = L.SweepConfig(family="random", concept="ps", n_values=(3,), alphas=(F(1),))
        with pytest.raises(BoundViolation, match="exceeds 2"):
            L.poa_sweep(cfg)

    def test_sampled_fallback_beyond_enum_limit(self):
        # beyond the bse limit 6 and the exact-optimum limit 7
        inst = L.random_instance(8, "tree", 3, F(2))
        point = L.poa_point(inst, "bse")  # heuristic optimum
        assert not point.complete
        assert not point.opt_proven
        if point.stable_found:
            assert point.ratio is not None

    def test_beyond_ps_limit_samples_within_seconds(self):
        start = time.perf_counter()
        point = L.poa_point(L.random_instance(8, "tree", 0, 2), "ps")
        assert time.perf_counter() - start < 5
        assert not point.complete


SWEEP_COLUMNS = (
    "label | n | alpha | worst | opt | proven | ratio | complete | metric | "
    "stable# | 2(a+1) | metric-cap | stretch | edge-cost | opt-stretch | "
    "expected | bse-advisory"
)

# config, render() lines without SWEEP_COLUMNS, render_jsonl() lines;
# together they reach both values of every bound column, the expected
# column and the advisory
PINNED_SWEEPS = {
    # every check runs, and the bse advisory is written
    "tree_bse_n4": (
        dict(
            family="random",
            concept="bse",
            n_values=(4,),
            alphas=(F(4),),
            model="tree",
            count=2,
            seed=1,
        ),
        [
            "sweep family=random concept=bse model=tree seed=1 count=2",
            "tree(seed=1,n=4,alpha=4) | 4 | 4 | 182 | 130 | yes | 7/5 | yes | yes | 7 | ok | ok | ok | ok | ok | - | 1.345<=?760.000",
            "tree(seed=2,n=4,alpha=4) | 4 | 4 | 382 | 238 | yes | 191/119 | yes | yes | 8 | ok | ok | ok | ok | ok | - | 1.706<=?760.000",
        ],
        [
            '{"alpha": "4", "bse_advisory": "1.345<=?760.000", "complete": true, "concept": "bse", "expected_ratio": "-", "label": "tree(seed=1,n=4,alpha=4)", "metric": true, "n": 4, "opt": "130", "opt_proven": true, "ratio": "7/5", "stable_count": 7, "worst": "182"}',
            '{"alpha": "4", "bse_advisory": "1.706<=?760.000", "complete": true, "concept": "bse", "expected_ratio": "-", "label": "tree(seed=2,n=4,alpha=4)", "metric": true, "n": 4, "opt": "238", "opt_proven": true, "ratio": "191/119", "stable_count": 8, "worst": "382"}',
        ],
    ),
    # beyond the bse enumeration limit: sampled, no stable set listed
    "tree_bse_n7": (
        dict(family="random", concept="bse", n_values=(7,), alphas=(F(2),), model="tree", count=2),
        [
            "sweep family=random concept=bse model=tree seed=0 count=2",
            "tree(seed=0,n=7,alpha=2) | 7 | 2 | 784 | 784 | yes | 1 | no | yes | -1 | ok | ok | n/a | n/a | ok | - | -",
            "tree(seed=1,n=7,alpha=2) | 7 | 2 | 1100 | 800 | yes | 11/8 | no | yes | -1 | ok | ok | n/a | n/a | ok | - | -",
        ],
        [
            '{"alpha": "2", "bse_advisory": null, "complete": false, "concept": "bse", "expected_ratio": "-", "label": "tree(seed=0,n=7,alpha=2)", "metric": true, "n": 7, "opt": "784", "opt_proven": true, "ratio": "1", "stable_count": -1, "worst": "784"}',
            '{"alpha": "2", "bse_advisory": null, "complete": false, "concept": "bse", "expected_ratio": "-", "label": "tree(seed=1,n=7,alpha=2)", "metric": true, "n": 7, "opt": "800", "opt_proven": true, "ratio": "11/8", "stable_count": -1, "worst": "1100"}',
        ],
    ),
    # a non-metric host: no metric cap
    "uniform_bne_n4": (
        dict(family="random", concept="bne", n_values=(4,), alphas=(F(2),), count=2),
        [
            "sweep family=random concept=bne model=uniform seed=0 count=2",
            "uniform(seed=0,n=4,alpha=2) | 4 | 2 | 5343/32 | 3713/32 | yes | 5343/3713 | yes | no | 5 | ok | n/a | ok | ok | ok | - | -",
            "uniform(seed=1,n=4,alpha=2) | 4 | 2 | 3689/32 | 3689/32 | yes | 1 | yes | no | 1 | ok | n/a | ok | ok | ok | - | -",
        ],
        [
            '{"alpha": "2", "bse_advisory": null, "complete": true, "concept": "bne", "expected_ratio": "-", "label": "uniform(seed=0,n=4,alpha=2)", "metric": false, "n": 4, "opt": "3713/32", "opt_proven": true, "ratio": "5343/3713", "stable_count": 5, "worst": "5343/32"}',
            '{"alpha": "2", "bse_advisory": null, "complete": true, "concept": "bne", "expected_ratio": "-", "label": "uniform(seed=1,n=4,alpha=2)", "metric": false, "n": 4, "opt": "3689/32", "opt_proven": true, "ratio": "1", "stable_count": 1, "worst": "3689/32"}',
        ],
    ),
    # a fixture family: the expected ratio
    "zero_cluster_bse_n4": (
        dict(family="zero_cluster", concept="bse", n_values=(4,), alphas=(F(2),)),
        [
            "sweep family=zero_cluster concept=bse model=uniform seed=0 count=1",
            "zero_cluster(n=4,alpha=2) | 4 | 2 | 30 | 10 | yes | 3 | yes | no | 12 | ok | n/a | ok | ok | ok | 3 | -",
        ],
        [
            '{"alpha": "2", "bse_advisory": null, "complete": true, "concept": "bse", "expected_ratio": "3", "label": "zero_cluster(n=4,alpha=2)", "metric": false, "n": 4, "opt": "10", "opt_proven": true, "ratio": "3", "stable_count": 12, "worst": "30"}',
        ],
    ),
    # no endpoint certified within the budget, and a heuristic optimum
    "tree_bse_n8_budget": (
        dict(
            family="random",
            concept="bse",
            n_values=(8,),
            alphas=(F(2),),
            model="tree",
            budget=L.Budget(max_moves=1),
        ),
        [
            "sweep family=random concept=bse model=tree seed=0 count=1",
            "tree(seed=0,n=8,alpha=2) | 8 | 2 | - | 982 | no | - | no | yes | -1 | n/a | n/a | n/a | n/a | n/a | - | -",
        ],
        [
            '{"alpha": "2", "bse_advisory": null, "complete": false, "concept": "bse", "expected_ratio": "-", "label": "tree(seed=0,n=8,alpha=2)", "metric": true, "n": 8, "opt": "982", "opt_proven": false, "ratio": "-", "stable_count": -1, "worst": "-"}',
        ],
    ),
}


class TestPoaSweep:
    def test_zero_cluster_sweep_ratios_exact(self):
        cfg = L.SweepConfig(
            family="zero_cluster",
            concept="bse",
            n_values=(4, 5),
            alphas=(F(1), F(2), F(5)),
        )
        report = L.poa_sweep(cfg)
        for row in report.rows:
            assert row.point.ratio == row.point.alpha + 1
            assert row.point.ratio == row.expected_ratio

    def test_uniform_sweep_no_violations(self):
        cfg = L.SweepConfig(
            family="random",
            concept="ps",
            n_values=(4,),
            alphas=(F(1, 2), F(1), F(2), F(5)),
            model="uniform",
            count=3,
            seed=0,
        )
        report = L.poa_sweep(cfg)  # would raise BoundViolation on any breach
        assert len(report.rows) == 12

    def test_tree_sweep_checks_metric_caps(self):
        cfg = L.SweepConfig(
            family="random",
            concept="ps",
            n_values=(4,),
            alphas=(F(1), F(2)),
            model="tree",
            count=3,
            seed=5,
        )
        report = L.poa_sweep(cfg)
        for row in report.rows:
            assert row.metric

    def test_reports_are_byte_identical_across_runs(self):
        cfg = L.SweepConfig(
            family="random",
            concept="ps",
            n_values=(4,),
            alphas=(F(1), F(3)),
            model="euclidean",
            count=2,
            seed=9,
        )
        first = L.poa_sweep(cfg)
        second = L.poa_sweep(cfg)
        assert first.render() == second.render()
        assert first.render_jsonl() == second.render_jsonl()

    def test_bse_advisory_recorded_on_metric_instances(self):
        cfg = L.SweepConfig(
            family="random",
            concept="bse",
            n_values=(4,),
            alphas=(F(4),),
            model="tree",
            count=2,
            seed=1,
        )
        report = L.poa_sweep(cfg)
        assert any(row.bse_distance_advisory for row in report.rows)

    @pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
    def test_report_bytes_are_pinned(self, name):
        config, rows, jsonl = PINNED_SWEEPS[name]
        report = L.poa_sweep(L.SweepConfig(**config))
        assert report.render() == "\n".join([rows[0], SWEEP_COLUMNS, *rows[1:]])
        assert report.render_jsonl() == "\n".join(jsonl)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_values", (4.7,)),
            ("n_values", ("4",)),
            ("n_values", (True,)),
            ("count", 1.5),
            ("count", True),
            ("seed", "x"),
        ],
        ids=["n-float", "n-text", "n-bool", "count-float", "count-bool", "seed-text"],
    )
    def test_config_refuses_what_the_loader_refuses(self, field, value):
        fields = {"family": "random", "concept": "ps", "n_values": (4,), "alphas": (F(1),)}
        name = "n" if field == "n_values" else field
        with pytest.raises(LabInputError, match=f"sweep {name} must be an int"):
            L.SweepConfig(**fields | {field: value})

    @pytest.mark.parametrize(
        "family, field, value, message",
        [
            ("random", "budget", {"max_moves": 1}, "budget must be a Budget"),
            ("zero_cluster", "budget", 5, "budget must be a Budget"),
            ("random", "model", "nope", "unknown model 'nope'"),
            ("zero_cluster", "model", "nope", "unknown model 'nope'"),
            ("random", "variant", "bse", "variant applies to fixture families only"),
            ("random", "family", "nope", "unknown family 'nope'"),
        ],
        ids=[
            "random-budget", "fixture-budget", "random-model", "fixture-model", "variant",
            "family",
        ],
    )
    def test_config_refuses_fields_it_cannot_use(self, family, field, value, message):
        # refused when made: a random sweep has no variant and reads its
        # model only once it runs, and a fixture sweep prints the model
        fields = {"family": family, "concept": "bse", "n_values": (4,), "alphas": (F(1),)}
        with pytest.raises(LabInputError, match=message):
            L.SweepConfig(**fields | {field: value})

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                dict(family="two_tier_star", variant="bse", n_values=(6, 3), alphas=(7,)),
                "two_tier_star n must be an int >= 4: 3",
            ),
            (
                dict(family="cluster_path", n_values=(6, 4), alphas=(16, 25)),
                r"cluster_path needs alpha <= n\^2, got alpha=25 n=4",
            ),
            (
                dict(family="random", model="tree", n_values=(6, 1), alphas=(2,), count=2),
                "random instance n must be an int >= 2: 1",
            ),
        ],
        ids=["two_tier_star-n", "cluster_path-alpha", "random-n"],
    )
    def test_grid_is_built_before_any_cell_is_measured(self, monkeypatch, config, message):
        # each grid's last cell is one its generator refuses
        measured = []
        measure = H._measure_poa

        def counted(inst, *args, **kwargs):
            measured.append(inst.n)
            return measure(inst, *args, **kwargs)

        monkeypatch.setattr(H, "_measure_poa", counted)
        with pytest.raises(LabInputError, match=message):
            L.poa_sweep(L.SweepConfig(concept="bse", **config))
        assert measured == []

    def test_metric_ratio_above_its_cap_raises(self, monkeypatch):
        # A stubbed proven optimum a quarter of the worst stable cost: the
        # ratio 4 is within 2(alpha+1) = 6 but above the metric cap
        # min(alpha+1, 2(n-1)) = 3 of a tree host.
        inst = L.random_instance(4, "tree", 0, F(2))
        worst = L.enumerate_stable(inst, "ps", worst_only=True).worst_cost
        opt = OptResult(network=L.Network.complete(4), cost=worst / 4, proven=True)
        monkeypatch.setattr(H, "social_optimum", lambda *a, **k: opt)
        cfg = L.SweepConfig(
            family="random", concept="ps", n_values=(4,), alphas=(F(2),), model="tree"
        )
        with pytest.raises(BoundViolation, match="metric ratio 4 exceeds 3"):
            L.poa_sweep(cfg)

    def test_edge_cost_above_the_distance_bound_raises(self):
        # The complete network stretches no link (w(0,1) = 100 is bypassed
        # at 2), but its edge cost 102 exceeds (2*alpha/(n-1) + 1) * 8 = 16.
        inst = L.Instance(host=L.validate_host([[0, 100, 1], [100, 0, 1], [1, 1, 0]]), alpha=1)
        with pytest.raises(BoundViolation, match="edge cost exceeds the distance-cost bound"):
            H._check_network_bounds(inst, L.Network.complete(3), {})

    def test_network_bounds_read_one_distance_run(self, monkeypatch):
        # the stretch and the edge-cost bound share one all-pairs run
        runs = []
        dijkstra = L.model._dijkstra

        def counted(n, adj, source):
            runs.append(source)
            return dijkstra(n, adj, source)

        monkeypatch.setattr(L.model, "_dijkstra", counted)
        H._check_network_bounds(unit_instance(5, 2), L.Network.complete(5), {})
        assert runs == list(range(5))


class TestRandomInstances:
    def test_determinism(self):
        a = L.random_instance(5, "uniform", 3, F(2))
        b = L.random_instance(5, "uniform", 3, F(2))
        assert a.host.weights == b.host.weights

    def test_tree_model_is_metric(self):
        for seed in range(5):
            inst = L.random_instance(6, "tree", seed, F(1))
            assert L.is_metric(inst.host).is_metric

    def test_euclidean_model_is_metric(self):
        for seed in range(5):
            inst = L.random_instance(6, "euclidean", seed, F(1))
            assert L.is_metric(inst.host).is_metric

    def test_uniform_model_weights_within_range(self):
        inst = L.random_instance(6, "uniform", 0, F(1))
        for u in range(6):
            for v in range(6):
                if u != v:
                    assert F(1) <= inst.host.weights[u][v] <= F(10)

    def test_unknown_model_is_refused(self):
        with pytest.raises(LabInputError, match="unknown model 'nope'"):
            L.random_instance(3, "nope", 0, F(1))


class TestPropertySuite:
    def test_small_run_is_clean_and_deterministic(self, monkeypatch):
        trials = (150, 40, 15, 15, 10, 25)
        small = [(prop, t) for (prop, _), t in zip(P.SUITE, trials)]
        monkeypatch.setattr(P, "SUITE", small)
        report = property_suite(seed=7)
        assert report.ok, report.render()
        again = property_suite(seed=7)
        assert report.render() == again.render()

    def test_shrinker_finds_minimal_failures(self):
        # artificial predicate: fails while the network still has a 0-1 edge
        inst = unit_instance(5, 1)
        net = L.Network.complete(5)

        def fails(sub_inst, sub_net):
            return any(
                sub_inst.host.weights[u][v] == 1 and (u, v) == (0, 1)
                for u, v in sub_net.edges
            )

        small_inst, small_net = shrink_counterexample(inst, net, fails)
        assert small_net.edges == ((0, 1),)
        assert small_inst.n == 2

    @pytest.fixture
    def wrong_oracle(self, monkeypatch):
        # a wrong oracle: no single removal pays for an agent of degree >= 2
        real = P.best_single_removal

        def wrong(inst, net, u):
            return None if sum(u in e for e in net.edges) >= 2 else real(inst, net, u)

        monkeypatch.setattr(P, "best_single_removal", wrong)
        return wrong

    def test_dominance_counterexample_holds_on_the_printed_instance(self, wrong_oracle):
        failing = 0
        for seed in range(40):
            result = P.check_single_removal_dominance(seed, 25)
            if not result.failures:
                continue
            failing += 1
            u, subset, inst, net = printed_counterexample(result.counterexample)
            assert subset and all(e in net.edges and u in e for e in subset)
            rest = L.Network.from_pairs(inst.n, [e for e in net.edges if e not in subset])
            after = L.cost_report(inst, rest).totals[u]
            assert after < L.cost_report(inst, net).totals[u]
            assert wrong_oracle(inst, net, u) is None
        assert failing > 0

    def test_dominance_counterexample_names_the_trials_agent(self, wrong_oracle, monkeypatch):
        # the shrink renumbers the nodes it keeps; the printed agent and
        # subset must be the trial's, under the printed instance's labels
        trials = []
        violation = P._dominance_violation

        def recorded(inst, net, u, subset):
            found = violation(inst, net, u, subset)
            if found is not None and not trials:
                trials.append((inst, u, subset))
            return found

        monkeypatch.setattr(P, "_dominance_violation", recorded)
        relabelled = 0
        for seed in range(40):
            trials.clear()
            result = P.check_single_removal_dominance(seed, 25)
            if not result.failures:
                continue
            drawn, u, subset = trials[0]
            agent, printed_subset, inst, _ = printed_counterexample(result.counterexample)
            assert inst.alpha == drawn.alpha
            w, dw = inst.host.weights, drawn.host.weights
            nodes = range(inst.n)
            embeddings = [
                m
                for m in permutations(range(drawn.n), inst.n)
                if all(w[i][j] == dw[m[i]][m[j]] for i in nodes for j in nodes)
            ]
            assert any(
                m[agent] == u
                and all(tuple(sorted((m[a], m[b]))) in subset for a, b in printed_subset)
                for m in embeddings
            ), seed
            relabelled += agent != u
        assert relabelled > 0
