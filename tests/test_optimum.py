import random
from fractions import Fraction as F

import pytest

import ncglab as L
from ncglab.errors import BoundViolation, InstanceTooLarge, NotProvenOptimal
from ncglab.engine import CostEngine, canonical_edges
from ncglab.optimum import (
    HEURISTIC_RESTARTS,
    OptResult,
    _best_star,
    _local_search,
    _minimum_spanning_tree,
    _random_spanning_tree,
    connected_subgraphs,
)
from ncglab.randomgen import MODELS
from ncglab.stability import ps_prefilter


def unit_instance(n, alpha):
    w = [[F(0) if u == v else F(1) for v in range(n)] for u in range(n)]
    return L.Instance(host=L.validate_host(w), alpha=F(alpha))


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def edge_subsets(n):
    """Every edge subset of K_n as a sorted edge tuple, by a plain mask scan."""
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        yield tuple(p for i, p in enumerate(pairs) if mask >> i & 1)


def is_connected(n, edges):
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == n


def with_zero_links(inst, seed):
    """A copy of inst with about a third of its host links, chosen by the seed, at weight 0."""
    rng = random.Random(seed)
    n = inst.n
    w = [list(row) for row in inst.host.weights]
    for u, v in all_pairs(n):
        if rng.random() < 1 / 3:
            w[u][v] = w[v][u] = F(0)
    return L.Instance(host=L.validate_host(w), alpha=inst.alpha)


class TestBruteForce:
    def test_pricey_triangle_prefers_a_path(self):
        opt = L.brute_force_opt(unit_instance(3, 10))
        assert opt.cost == F(48)
        assert len(opt.network.edges) == 2
        assert opt.proven

    def test_cheap_triangle_keeps_all_edges(self):
        opt = L.brute_force_opt(unit_instance(3, F(1, 10)))
        assert opt.cost == F(33, 5)
        assert opt.network == L.Network.complete(3)

    def test_zero_cluster_optimum_is_the_cheap_link(self):
        fx = L.gen_general_bse(4, F(2))
        opt = L.brute_force_opt(fx.instance)
        assert opt.cost == F(10)
        assert L.cost_report(fx.instance, fx.reference_net).social_total == opt.cost

    def test_node_limit(self):
        with pytest.raises(InstanceTooLarge):
            L.brute_force_opt(unit_instance(8, 1))

    def test_keeps_no_candidate_state(self, monkeypatch):
        # the walk prices each candidate once, so a kept state only holds
        # memory: 2,912 of them here, 443 MB of them at n=7
        engines = []
        init = CostEngine.__init__

        def registered(self, inst):
            init(self, inst)
            engines.append(self)

        monkeypatch.setattr(CostEngine, "__init__", registered)
        L.brute_force_opt(L.generate("zero_cluster", 6, 2).instance)
        assert [len(engine._states) for engine in engines] == [0]

    def test_no_connected_subgraph_beats_it(self):
        rng = random.Random(6)
        for _ in range(8):
            n = rng.randint(3, 5)
            inst = L.random_instance(n, "uniform", rng.randrange(10**6), F(rng.randint(1, 7), 2))
            opt = L.brute_force_opt(inst)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for _ in range(25):
                edges = [e for e in pairs if rng.random() < 0.6]
                report = L.cost_report(inst, L.Network.from_pairs(n, edges))
                if report.connected:
                    assert report.social_total >= opt.cost

    def test_optimum_is_connected(self):
        for seed in range(6):
            inst = L.random_instance(4, "uniform", seed, F(3))
            opt = L.brute_force_opt(inst)
            assert L.cost_report(inst, opt.network).connected

    def test_matches_unpruned_exhaustive_oracle(self):
        # The oracle shares no code with brute_force_opt: its own mask scan,
        # no prune, and model.cost_report's Fraction costs.
        def oracle(inst):
            best = None
            for edges in edge_subsets(inst.n):
                report = L.cost_report(inst, L.Network(n=inst.n, edges=edges))
                if report.connected and (best is None or (report.social_total, edges) < best):
                    best = (report.social_total, edges)
            return best

        instances = []
        for n in range(2, 6):
            for model in MODELS:
                for k, alpha in enumerate((F(1, 2), F(2), F(5))):
                    inst = L.random_instance(n, model, 10 * n + k, alpha)
                    if k != 1:
                        inst = with_zero_links(inst, f"{model}:{n}:{k}")
                    instances.append(inst)
            instances += [unit_instance(n, alpha) for alpha in (F(1, 2), F(2), F(5))]
        assert any(
            inst.host.weights[u][v] == 0 for inst in instances for u, v in all_pairs(inst.n)
        )
        for inst in instances:
            cost, edges = oracle(inst)
            opt = L.brute_force_opt(inst)
            assert (opt.cost, opt.network.edges) == (cost, edges)
            assert opt.proven


def walked_keys(n):
    # a step that keeps every state prunes nothing
    return [key for key, _ in connected_subgraphs(n, lambda state, j: state, ())]


class TestConnectedSubgraphs:
    def test_yields_every_connected_labelled_graph_once(self):
        # OEIS A001187: connected labelled graphs on n nodes
        for n, count in zip(range(2, 7), (1, 4, 38, 728, 26704)):
            sets = walked_keys(n)
            assert len(sets) == count
            assert len(set(sets)) == count
            assert all(is_connected(n, key) for key in sets)

    def test_order_is_sorted_edge_tuples(self):
        for n in range(2, 6):
            expected = sorted(key for key in edge_subsets(n) if is_connected(n, key))
            assert walked_keys(n) == expected

    def test_spend_predicate_keeps_exactly_the_sets_within_the_bound(self):
        rng = random.Random(5)
        for n in (3, 4, 5):
            pairs = all_pairs(n)
            weights = [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in pairs]
            spend = {p: w for p, w in zip(pairs, weights)}
            connected = sorted(key for key in edge_subsets(n) if is_connected(n, key))
            for bound in (0, 3, 7, 12, 20, sum(weights)):
                calls = []

                def within(s, j):
                    s += weights[j]
                    calls.append(s)
                    return s if s <= bound else None

                walked = list(connected_subgraphs(n, within, 0))
                kept = [k for k in connected if sum(spend[e] for e in k) <= bound]
                assert [key for key, _ in walked] == kept
                # each kept set's state is its own spend
                assert [s for _, s in walked] == [sum(spend[e] for e in k) for k in kept]
                # A rejected set's subtree is never reached: the step sees
                # exactly the one-pair extensions (by a later pair) of the empty
                # set and of every set within the bound.
                expected = sum(
                    len(pairs) - (pairs.index(k[-1]) + 1 if k else 0)
                    for k in edge_subsets(n)
                    if sum(spend[e] for e in k) <= bound
                )
                assert len(calls) == expected

    def test_prefilter_rows_are_the_engines_rows(self):
        # The rows the ps prefilter carries down the walk are exact: for
        # every candidate they equal the engine's Dijkstra rows, and their
        # sums and spend match, on hosts with and without zero-weight links.
        instances = []
        for n in range(2, 6):
            for model in MODELS:
                for k, alpha in enumerate((F(1, 2), F(2), F(5))):
                    inst = L.random_instance(n, model, 20 * n + k, alpha)
                    if k != 1:
                        inst = with_zero_links(inst, f"rows:{model}:{n}:{k}")
                    instances.append(inst)
            instances.append(unit_instance(n, 1))
            if n > 2:
                instances.append(L.gen_general_bse(n, F(2)).instance)  # zero_cluster
        assert any(
            inst.host.weights[u][v] == 0 for inst in instances for u, v in all_pairs(inst.n)
        )
        for inst in instances:
            n = inst.n
            engine = CostEngine(inst)
            root, step = ps_prefilter(engine)
            count = 0
            p, q = engine.p, engine.q
            for key, state in connected_subgraphs(n, step, root):
                rows, sums, stretched, spend, _ = state
                count += 1
                assert rows == [engine.row(key, x) for x in range(n)]
                assert sums == [sum(r) for r in rows]
                assert spend == sum(engine.W[a][b] for a, b in key)
                assert stretched == any(
                    q * rows[x][y] > (p + q) * engine.W[x][y] for x, y in all_pairs(n)
                )
            assert count == len(walked_keys(n))


class TestHeuristic:
    def test_two_nodes(self):
        opt = L.heuristic_opt(unit_instance(2, 5))
        assert opt.network.edges == ((0, 1),)
        assert not opt.proven

    def test_star_hosts_pick_the_center_star(self):
        fx = L.gen_metric_star(6, F(64), "ps")
        heuristic = L.heuristic_opt(fx.instance)
        exact = L.brute_force_opt(fx.instance)
        assert heuristic.cost == exact.cost

    def test_never_beats_brute_force_and_usually_matches(self):
        # regression target pinned from a fixed-seed batch, not a guarantee
        rng = random.Random(1234)
        matches = 0
        trials = 40
        for i in range(trials):
            n = 6 if i % 10 == 0 else rng.randint(3, 5)
            inst = L.random_instance(
                n, "uniform", rng.randrange(10**6), F(rng.randint(1, 9), rng.choice([1, 2]))
            )
            exact = L.brute_force_opt(inst)
            heur = L.heuristic_opt(inst)
            assert heur.cost >= exact.cost
            assert L.cost_report(inst, heur.network).connected
            if heur.cost == exact.cost:
                matches += 1
        assert matches >= 0.9 * trials

    def test_best_star_is_the_first_cheapest_priced_star(self):
        # every other host draws weights from {0, 1, 2}, so that stars tie
        # and zero-weight links occur
        rng = random.Random(29)
        ties = 0
        for i in range(120):
            n = rng.randint(2, 8)
            alpha = F(rng.randint(1, 8), rng.choice([1, 2]))
            if i % 2:
                w = [[F(0)] * n for _ in range(n)]
                for u, v in all_pairs(n):
                    w[u][v] = w[v][u] = F(rng.choice([0, 1, 2]))
                inst = L.Instance(host=L.validate_host(w), alpha=alpha)
            else:
                inst = L.random_instance(n, rng.choice(MODELS), rng.randrange(10**6), alpha)
            engine = CostEngine(inst)
            stars = [
                canonical_edges((min(c, v), max(c, v)) for v in range(n) if v != c)
                for c in range(n)
            ]
            costs = [engine.social_cost(key) for key in stars]
            assert _best_star(engine) == stars[costs.index(min(costs))]
            ties += costs.count(min(costs)) > 1
        assert ties > 20

    def test_pinned_n10_results(self):
        # the bench's n=10 base instances, beyond any brute-force oracle;
        # pinned so that a change to the search's pruning shows
        pinned = {
            ("uniform", 0): (
                ((0, 1), (0, 7), (1, 3), (1, 4), (2, 7), (4, 6), (5, 7), (6, 8), (6, 9), (7, 9)),
                F(3949, 8),
            ),
            ("uniform", 1): (
                ((0, 7), (1, 5), (1, 7), (1, 8), (2, 7), (3, 7), (4, 8), (6, 7), (7, 8), (7, 9)),
                F(14925, 32),
            ),
            ("euclidean", 0): (
                (
                    (0, 4), (0, 5), (0, 7), (1, 5), (1, 7), (2, 4),
                    (3, 4), (3, 9), (5, 7), (6, 9), (7, 9), (8, 9),
                ),
                F(2916),
            ),
            ("euclidean", 1): (
                (
                    (0, 3), (0, 5), (1, 4), (1, 7), (1, 9), (2, 5),
                    (2, 6), (2, 8), (2, 9), (3, 4), (4, 9),
                ),
                F(2590),
            ),
            ("tree", 0): (
                ((0, 1), (0, 2), (0, 3), (1, 9), (2, 5), (3, 4), (4, 7), (5, 6), (5, 8)),
                F(1760),
            ),
            ("tree", 1): (
                ((0, 1), (0, 3), (0, 6), (0, 7), (1, 2), (2, 4), (3, 5), (5, 8), (8, 9)),
                F(1914),
            ),
        }
        for (model, seed), (edges, cost) in pinned.items():
            opt = L.heuristic_opt(L.random_instance(10, model, seed, 2))
            assert (opt.network.edges, opt.cost) == (edges, cost), (model, seed)


def reference_descent(engine, start_key):
    """``_local_search`` without the swap bound: every candidate network is
    built as an explicit edge tuple and priced by ``social_cost``, in the
    same canonical order (adds, then per edge its drop and its swaps)."""
    key = start_key
    cost = engine.social_cost(key)
    while True:
        non_edges = [e for e in all_pairs(engine.n) if e not in key]
        moves = [tuple(sorted(key + (f,))) for f in non_edges]
        for e in key:
            smaller = tuple(x for x in key if x != e)
            moves.append(smaller)
            moves += [tuple(sorted(smaller + (f,))) for f in non_edges]
        best_cost, best_key = cost, key
        for move in moves:
            c = engine.social_cost(move)
            if c < best_cost:
                best_cost, best_key = c, move
        if best_cost >= cost:
            return cost, key
        cost, key = best_cost, best_key


class TestLocalSearch:
    def test_swap_bound_keeps_every_descent(self):
        instances = [
            L.random_instance(n, model, seed, alpha)
            for n in range(3, 8)
            for model in MODELS
            for seed in (0, 1)
            for alpha in (F(1, 4), F(2), F(7))
        ]
        instances += [
            L.generate("zero_cluster", n, alpha).instance
            for n in range(4, 8)
            for alpha in (F(1, 4), F(2), F(7))
        ]
        # near-tree descents, where most dropped edges are bridges
        instances += [
            L.random_instance(8, model, seed, alpha)
            for model in ("tree", "euclidean")
            for seed in (0, 1)
            for alpha in (F(1, 4), F(2), F(7))
        ]
        for inst in instances:
            engine = CostEngine(inst)
            rng = random.Random(0)
            starts = [_minimum_spanning_tree(inst), _best_star(engine)]
            starts += [_random_spanning_tree(inst.n, rng) for _ in range(HEURISTIC_RESTARTS)]
            reference = CostEngine(inst)
            for start in starts:
                assert _local_search(engine, start) == reference_descent(reference, start)

    def test_drops_reuse_the_rows_of_the_network(self, monkeypatch):
        # each drop priced from a fresh state took n Dijkstra runs: 2,950 here
        runs = []
        dijkstra = CostEngine._dijkstra

        def counted(self, adj, source):
            runs.append(source)
            return dijkstra(self, adj, source)

        monkeypatch.setattr(CostEngine, "_dijkstra", counted)
        L.heuristic_opt(L.random_instance(10, "tree", 0, 2))
        assert len(runs) <= 1_500


class TestOptSpannerCheck:
    def test_proven_optima_stay_within_stretch_bound(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(3, 5)
            inst = L.random_instance(n, "uniform", rng.randrange(10**6), F(rng.randint(1, 6)))
            opt = L.brute_force_opt(inst)
            stretch = L.opt_spanner_check(inst, opt)
            assert stretch <= inst.alpha + 1

    def test_complete_host_optimum_has_stretch_one(self):
        inst = unit_instance(4, F(1, 100))
        opt = L.brute_force_opt(inst)
        assert L.opt_spanner_check(inst, opt) == F(1)

    def test_heuristic_result_rejected(self):
        inst = unit_instance(3, 2)
        heur = L.heuristic_opt(inst)
        with pytest.raises(NotProvenOptimal):
            L.opt_spanner_check(inst, heur)

    def test_corrupted_optimum_flags_violation(self):
        # unit host with tiny alpha: bound is 11/10 but a path stretches to 4
        inst = unit_instance(5, F(1, 10))
        fake = OptResult(
            network=L.Network.from_pairs(5, [(i, i + 1) for i in range(4)]),
            cost=F(1),
            proven=True,
        )
        with pytest.raises(BoundViolation):
            L.opt_spanner_check(inst, fake)
