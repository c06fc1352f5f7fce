import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import ncglab as L
from ncglab import harness, serialize
from ncglab.errors import (
    AsymmetricWeight,
    DisconnectedNetwork,
    DisconnectedSeed,
    HostTooSmall,
    NegativeWeight,
    NonzeroDiagonal,
)


def host(rows):
    return L.validate_host([[F(x) for x in r] for r in rows])


def unit_host(n):
    return host([[0 if u == v else 1 for v in range(n)] for u in range(n)])


class TestValidateHost:
    def test_accepts_all_ones(self):
        h = unit_host(3)
        assert h.n == 3
        assert L.is_metric(h).is_metric

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricWeight) as err:
            host([[0, 1, 1], [2, 0, 1], [1, 1, 0]])
        assert err.value.pair == (0, 1)

    def test_rejects_negative(self):
        with pytest.raises(NegativeWeight) as err:
            host([[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
        assert err.value.pair == (0, 2)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            host([[1, 1], [1, 0]])

    def test_rejects_tiny(self):
        with pytest.raises(HostTooSmall):
            host([[0]])

    def test_constructor_is_the_check(self):
        # a negative weight would price the complete network below zero
        with pytest.raises(NegativeWeight) as err:
            L.HostGraph(n=2, weights=((0, -1), (-1, 0)))
        assert err.value.pair == (0, 1)
        h = L.HostGraph(n=2, weights=[[0, "1/2"], ["1/2", 0]])
        assert h.weights == ((F(0), F(1, 2)), (F(1, 2), F(0)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: L.Network.from_pairs(3, [(0.0, 1)]),
        lambda: L.Network.from_pairs(3, [(True, 2)]),
        lambda: L.Network.from_pairs(3, [(1, 1)]),
        lambda: L.Network.from_pairs(3, [(0, 3)]),
        lambda: L.Network.from_pairs(3, [(0, 1, 2)]),
        lambda: L.Network.from_pairs(3, [5]),
        lambda: L.validate_host([[0, 1], [1]]),
        lambda: L.parse_rational("a/b"),
        lambda: L.parse_rational("1/0"),
        lambda: L.Network(n=3, edges=((0, 5),)),
        lambda: L.Network(n=3, edges=((1, 0), (0, 1))),
        lambda: L.Network(n=3, edges=((0, 0),)),
        lambda: L.Network(n=3, edges=((0, 1), (0, 1))),
        lambda: L.Network(n=3, edges=((True, 2),)),
        lambda: L.Network(n=3, edges=((0, 1.0),)),
        lambda: L.Network(n=3, edges=[(0, 1)]),
        lambda: L.Network(n=3, edges=((0, 1, 2),)),
        lambda: L.HostGraph(n=3, weights=((0, 1), (1, 0))),
        lambda: L.Instance(host=[[0, 1], [1, 0]], alpha=1),
    ],
    ids=[
        "node-id-float", "node-id-bool", "self-loop", "node-id-out-of-range",
        "pair-of-three", "pair-not-a-list",
        "short-row", "rational-text", "rational-zero-denominator",
        "network-edge-out-of-range", "network-edge-reversed", "network-self-loop",
        "network-edge-twice", "network-node-bool", "network-node-float",
        "network-edge-list", "network-pair-of-three", "host-rows-short",
        "instance-host-matrix",
    ],
)
def test_bad_values_are_input_errors(build):
    # a float or bool node id would later index the engine's tables; the
    # rest were bare ValueErrors, which the CLI does not report as input,
    # or values a constructor took unchecked
    with pytest.raises(L.LabInputError):
        build()


class TestIsMetric:
    def test_unit_weights_are_metric(self):
        h = unit_host(4)
        report = L.is_metric(h)
        assert report.is_metric
        assert L.is_metric(h).is_metric

    def test_violation_reports_first_triple_and_slack(self):
        h = host([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        report = L.is_metric(h)
        assert not report.is_metric
        assert report.violation == (0, 1, 2)
        assert report.slack == F(1)
        assert not L.is_metric(h).is_metric

    def test_zero_cluster_fixture_host_is_not_metric(self):
        fx = L.gen_general_bse(5, F(2))
        report = L.is_metric(fx.instance.host)
        assert not report.is_metric
        # first violation: the overpriced link vs a free hop through the cluster
        assert report.violation == (0, 1, 4)
        assert report.slack == F(2)


class TestMetricClosure:
    def test_path_closure(self):
        h = L.metric_closure(3, [(0, 1, F(1)), (1, 2, F(1))])
        assert h.weight(0, 2) == F(2)
        assert L.is_metric(h).is_metric

    def test_two_tier_star_closure(self):
        # center 1, heavy leaf 0 at 1, light leaves 2,3 at 1/2
        h = L.metric_closure(4, [(1, 0, F(1)), (1, 2, F(1, 2)), (1, 3, F(1, 2))])
        assert h.weight(0, 2) == F(3, 2)
        assert h.weight(0, 3) == F(3, 2)
        assert h.weight(2, 3) == F(1)

    def test_single_edge_closure_is_seed(self):
        h = L.metric_closure(2, [(0, 1, F(5))])
        assert h.weight(0, 1) == F(5)

    def test_disconnected_seed_rejected(self):
        with pytest.raises(DisconnectedSeed):
            L.metric_closure(3, [(0, 1, F(1))])

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_small_host_rejected(self, n):
        # the check validate_host makes
        with pytest.raises(L.HostTooSmall):
            L.metric_closure(n, [])

    def test_negative_seed_weight_rejected(self):
        # named as the seed lists it: the host's own check would name (1, 2)
        with pytest.raises(NegativeWeight) as err:
            L.metric_closure(3, [(0, 1, F(1)), (2, 1, F(-1))])
        assert err.value.pair == (2, 1)

    @pytest.mark.parametrize("u, v", [(0, -1), (0, 3), (3, 0), (True, 2), (0.0, 1)])
    def test_seed_edge_outside_nodes_rejected(self, u, v):
        # -1 would index node 2, and 3 would raise a bare IndexError
        seed = [(u, v, F(1)), (0, 1, F(1)), (1, 2, F(1))]
        with pytest.raises(L.LabInputError, match=r"seed edge .* leaves nodes 0\.\.2"):
            L.metric_closure(3, seed)


class TestShortestDistances:
    def test_path_sum(self):
        h = host([[0, 2, 9], [2, 0, 3], [9, 3, 0]])
        net = L.Network.from_pairs(3, [(0, 1), (1, 2)])
        dm = L.shortest_distances(net, h)
        assert dm.dist[0][2] == F(5)
        assert dm.connected

    def test_edgeless_is_disconnected(self):
        dm = L.shortest_distances(L.Network.empty(2), unit_host(2))
        assert L.is_inf(dm.dist[0][1])
        assert not dm.connected

    def test_zero_weight_tree_distances_all_zero(self):
        h = host([[0] * 4 for _ in range(4)])
        net = L.Network.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        dm = L.shortest_distances(net, h)
        assert all(dm.dist[u][v] == 0 for u in range(4) for v in range(4))
        assert dm.connected

    def test_result_is_pseudometric(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 6)
            inst = L.random_instance(n, "uniform", rng.randrange(999), F(1))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.6
            ]
            dm = L.shortest_distances(L.Network.from_pairs(n, edges), inst.host)
            for u in range(n):
                assert dm.dist[u][u] == 0
                for v in range(n):
                    assert dm.dist[u][v] == dm.dist[v][u]
                    for z in range(n):
                        duz, dzv, duv = dm.dist[u][z], dm.dist[z][v], dm.dist[u][v]
                        if not (L.is_inf(duz) or L.is_inf(dzv)):
                            assert duv <= duz + dzv


class TestCostReport:
    def test_two_nodes_single_edge(self):
        h = host([[0, 5], [5, 0]])
        inst = L.Instance(host=h, alpha=F(3))
        report = L.cost_report(inst, L.Network.from_pairs(2, [(0, 1)]))
        assert report.totals == (F(20), F(20))
        assert report.social_total == F(40)

    def test_three_node_star_matches_closed_form(self):
        h = unit_host(3)
        inst = L.Instance(host=h, alpha=F(2))
        star = L.Network.from_pairs(3, [(0, 1), (0, 2)])
        report = L.cost_report(inst, star)
        assert report.totals[0] == F(6)
        assert report.totals[1] == report.totals[2] == F(5)
        assert report.social_total == F(16)
        assert report.social_total == L.star_social_cost(3, F(2), F(2))

    def test_disconnected_social_is_infinite(self):
        inst = L.Instance(host=unit_host(3), alpha=F(1))
        report = L.cost_report(inst, L.Network.empty(3))
        assert L.is_inf(report.social_total)
        assert not report.connected


class TestStarSocialCost:
    def test_values(self):
        assert L.star_social_cost(3, F(2), F(2)) == F(16)
        assert L.star_social_cost(4, F(2), F(3)) == F(30)
        assert L.star_social_cost(5, F(7), F(0)) == F(0)

    def test_refuses_what_no_star_has(self):
        with pytest.raises(HostTooSmall):
            L.star_social_cost(1, F(1), F(1))
        with pytest.raises(L.LabInputError, match="star total_weight must be non-negative"):
            L.star_social_cost(3, F(1), F(-5))


class TestSpannerStretch:
    def test_full_host_has_stretch_one(self):
        inst = L.random_instance(5, "uniform", 11, F(1))
        assert L.spanner_stretch(L.Network.complete(5), inst.host) == F(1)

    def test_two_tier_star_stable_network_stretch(self):
        # worst pair is (old center, light leaf): (a + (a+b)) / b = alpha + 1
        fx = L.gen_metric_star(4, F(4), "ps")
        stretch = L.spanner_stretch(fx.stable_net, fx.instance.host)
        assert stretch == F(5)
        assert stretch <= fx.instance.alpha + 1

    def test_disconnected_stretch_infinite(self):
        assert L.is_inf(L.spanner_stretch(L.Network.empty(3), unit_host(3)))

    def test_zero_host_distance_pairs_are_skipped(self):
        fx = L.gen_general_bse(4, F(2))
        stretch = L.spanner_stretch(fx.stable_net, fx.instance.host)
        assert stretch == F(3)  # boundary: exactly alpha + 1

    def test_zero_host_distance_needs_zero_network_distance(self):
        h = host([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        net = L.Network.from_pairs(3, [(0, 2), (1, 2)])  # d(0,1) = 2 but host 0
        assert L.is_inf(L.spanner_stretch(net, h))

    @staticmethod
    def all_pairs_stretch(net, h):
        """The worst d_net/d_host over all pairs, host distances by
        shortest paths over the full host; a pair at host distance zero
        needs network distance zero."""
        d_net = L.shortest_distances(net, h).dist
        d_host = L.shortest_distances(L.Network.complete(h.n), h).dist
        worst = F(0)
        for u in range(h.n):
            for v in range(u + 1, h.n):
                dh, dg = d_host[u][v], d_net[u][v]
                if L.is_inf(dg) or (dh == 0 and dg != 0):
                    return L.INF
                if dh != 0:
                    worst = max(worst, dg / dh)
        return worst

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 6),
        weights=st.lists(
            st.sampled_from((0, 0, 1, 1, 2, 3, 7, F(1, 2), F(5, 3))),
            min_size=15,
            max_size=15,
        ),
        kept=st.lists(st.booleans(), min_size=15, max_size=15),
    )
    def test_link_maximum_equals_all_pairs_stretch(self, n, weights, kept):
        # zero and non-metric weights, connected and disconnected networks
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        w = [[F(0)] * n for _ in range(n)]
        for k, (u, v) in enumerate(pairs):
            w[u][v] = w[v][u] = F(weights[k])
        h = L.validate_host(w)
        net = L.Network.from_pairs(n, (p for k, p in enumerate(pairs) if kept[k]))
        assert L.spanner_stretch(net, h) == self.all_pairs_stretch(net, h)


class TestShortestPathTree:
    def test_star_is_its_own_tree(self):
        h = unit_host(4)
        star = L.Network.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
        assert L.shortest_path_tree(star, h, 0) == star

    def test_triangle_tree_prefers_small_predecessors(self):
        tree = L.shortest_path_tree(L.Network.complete(3), unit_host(3), 0)
        assert tree.edges == ((0, 1), (0, 2))

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedNetwork):
            L.shortest_path_tree(L.Network.empty(3), unit_host(3), 0)

    def test_zero_weight_link_stays_a_tree(self):
        # 1 and 2 are both at distance 1 from the root 3 and 0 apart, so
        # each is a shortest-path neighbour of the other; only the one
        # settled first may be the other's parent, else neither reaches 3
        h = host([[0, 5, 5, 1], [5, 0, 0, 1], [5, 0, 0, 1], [1, 1, 1, 0]])
        net = L.Network.from_pairs(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
        tree = L.shortest_path_tree(net, h, 3)
        assert tree.edges == ((0, 3), (1, 2), (1, 3))

    def test_distance_bound_on_random_networks(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(3, 7)
            inst = L.random_instance(n, "tree", rng.randrange(999), F(1))
            extra = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            spanning = [(i, rng.randrange(i)) for i in range(1, n)]
            net = L.Network.from_pairs(n, spanning + extra)
            dm = L.shortest_distances(net, inst.host)
            total_g = sum(dm.row_sum(u) for u in range(n))
            for z in range(n):
                tree = L.shortest_path_tree(net, inst.host, z)
                assert set(tree.edges) <= set(net.edges)
                dt = L.shortest_distances(tree, inst.host)
                assert all(dt.dist[z][u] == dm.dist[z][u] for u in range(n))
                total_t = sum(dt.row_sum(u) for u in range(n))
                assert total_g <= total_t <= 2 * (n - 1) * dm.row_sum(z)


@given(st.integers(min_value=0, max_value=10**9))
@settings(derandomize=True, max_examples=60)
def test_shortest_path_tree_across_zero_weight_links(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    w = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            w[u][v] = w[v][u] = rng.choice([0, 0, 1, 2, 3])
    h = host(w)
    spanning = [(i, rng.randrange(i)) for i in range(1, n)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    net = L.Network.from_pairs(n, spanning + extra)
    z = rng.randrange(n)
    tree = L.shortest_path_tree(net, h, z)
    assert len(tree.edges) == n - 1
    assert set(tree.edges) <= set(net.edges)
    dt = L.shortest_distances(tree, h)
    assert dt.connected
    assert dt.dist[z] == L.shortest_distances(net, h).dist[z]


@given(st.integers(min_value=0, max_value=10**9))
@settings(derandomize=True, max_examples=30)
def test_closure_of_random_tree_is_metric(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    edges = [(i, rng.randrange(i), F(rng.randint(0, 20), rng.choice([1, 2, 5]))) for i in range(1, n)]
    h = L.metric_closure(n, edges)
    assert L.is_metric(h).is_metric


def test_cost_identity_exact_recompute():
    inst = L.random_instance(5, "uniform", 42, F(7, 3))
    net = L.Network.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    first = L.cost_report(inst, net)
    second = L.cost_report(inst, net)
    assert first.social_total == second.social_total
    assert first.totals == second.totals
    w_total = sum(inst.host.weights[u][v] for u, v in net.edges)
    assert first.social_total == 2 * inst.alpha * w_total + sum(first.distance_costs)
    assert first.social_total == sum(first.totals)


@pytest.mark.parametrize("model, metric", [("uniform", False), ("tree", True)])
def test_values_stay_frozen_under_every_read(model, metric, monkeypatch):
    """Nothing is cached on a value: after the read-only entry points have
    run on them, an instance, its host and a network keep their fields,
    stay equal to fresh copies with equal hashes, and serialize the same."""
    inst = L.random_instance(4, model, 0, 2)
    net = L.Network.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    before = [dict(vars(x)) for x in (inst, inst.host, net)]
    text = serialize.instance_to_json(inst)
    assert json.loads(text)["metric_hint"] is metric  # no prior is_metric call

    assert L.is_metric(inst.host).is_metric is metric
    for concept in L.CONCEPTS:
        L.check(inst, net, concept)
    L.cost_report(inst, net)
    L.shortest_path_tree(net, inst.host, 0)
    monkeypatch.setattr(harness, "random_instance", lambda *args: inst)
    cfg = L.SweepConfig(
        family="random", concept="ps", n_values=(4,), alphas=(2,), model=model
    )
    assert L.poa_sweep(cfg).rows[0].metric is metric

    assert [vars(x) for x in (inst, inst.host, net)] == before
    fresh = L.random_instance(4, model, 0, 2)
    fresh_net = L.Network.from_pairs(4, [(2, 3), (1, 2), (0, 1)])
    for value, copy in ((inst, fresh), (inst.host, fresh.host), (net, fresh_net)):
        assert value == copy
        assert hash(value) == hash(copy)
    assert serialize.instance_to_json(inst) == text
