import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

import ncglab as L
import ncglab.serialize as S
from ncglab.engine import CostEngine, canonical_edges
from ncglab.errors import (
    AdditionAlreadyPresent,
    AdditionOutsideCoalition,
    InconclusiveSearch,
    MoveError,
    RemovalNotPresent,
)
from ncglab.scalars import INF, is_inf
from ncglab.stability import _MoverPricing, _run_checker, _Search


def host(rows):
    return L.validate_host([[F(x) for x in r] for r in rows])


def unit_instance(n, alpha):
    h = host([[0 if u == v else 1 for v in range(n)] for u in range(n)])
    return L.Instance(host=h, alpha=F(alpha))


class TestApplyMove:
    def test_removal(self):
        net = L.Network.from_pairs(2, [(0, 1)])
        move = L.Move.make((0, 1), removals=[(0, 1)])
        assert L.apply_move(net, move).edges == ()

    def test_addition(self):
        move = L.Move.make((0, 1), additions=[(0, 1)])
        assert L.apply_move(L.Network.empty(2), move).edges == ((0, 1),)

    def test_addition_outside_coalition_rejected(self):
        move = L.Move.make((0,), additions=[(0, 1)])
        with pytest.raises(AdditionOutsideCoalition):
            L.apply_move(L.Network.empty(2), move)

    def test_removal_not_present_rejected(self):
        move = L.Move.make((0,), removals=[(0, 1)])
        with pytest.raises(RemovalNotPresent):
            L.apply_move(L.Network.empty(2), move)

    def test_addition_already_present_rejected(self):
        net = L.Network.from_pairs(2, [(0, 1)])
        move = L.Move.make((0, 1), additions=[(0, 1)])
        with pytest.raises(AdditionAlreadyPresent):
            L.apply_move(net, move)

    def test_empty_coalition_rejected(self):
        # with no member to improve, an empty move would pass is_improving
        inst = unit_instance(3, 1)
        net = L.Network.from_pairs(3, [(0, 1), (1, 2)])
        empty = L.Move.make(())
        for call in (
            lambda: L.apply_move(net, empty),
            lambda: L.is_improving(inst, net, empty),
            lambda: L.move_deltas(inst, net, empty),
        ):
            with pytest.raises(MoveError):
                call()

    def test_member_outside_nodes_rejected(self):
        # the addition lies inside the coalition, but node 4 is not in the network
        inst = unit_instance(4, 1)
        net = L.Network.empty(4)
        move = L.Move.make((3, 4), additions=[(3, 4)])
        for call in (
            lambda: L.apply_move(net, move),
            lambda: L.is_improving(inst, net, move),
            lambda: L.move_deltas(inst, net, move),
        ):
            with pytest.raises(MoveError, match=r"leaves nodes 0\.\.3"):
                call()

    @pytest.mark.parametrize(
        "move, message",
        [
            (L.Move.make((1, 2), additions=[(1, 2), (2, 1)]), "move lists an edge twice"),
            (L.Move.make((0,), removals=[(0, 1), (1, 0)]), "move lists an edge twice"),
            (L.Move.make((1,), additions=[(1, 1)]), "move has a self-loop"),
            (L.Move.make((0, 0), removals=[(0, 1)]), "move coalition lists a member twice"),
        ],
        ids=["additions", "removals", "self-loop", "member-twice"],
    )
    def test_edge_listed_twice_rejected(self, move, message):
        # (0, 1) is present and (1, 2) absent, so each move is otherwise valid
        inst = unit_instance(3, 1)
        net = L.Network.from_pairs(3, [(0, 1)])
        witness = json.dumps(
            {
                "concept": "BSE",
                "coalition": list(move.coalition),
                "remove": [list(e) for e in move.removals],
                "add": [list(e) for e in move.additions],
            }
        )
        for call in (
            lambda: L.apply_move(net, move),
            lambda: L.is_improving(inst, net, move),
            lambda: L.move_deltas(inst, net, move),
            lambda: S.witness_from_json(witness),
        ):
            with pytest.raises(MoveError, match=message):
                call()

    def test_input_untouched(self):
        net = L.Network.from_pairs(3, [(0, 1), (1, 2)])
        L.apply_move(net, L.Move.make((1,), removals=[(0, 1)]))
        assert net.edges == ((0, 1), (1, 2))


class TestPairwiseStable:
    def test_two_isolated_nodes_want_the_edge(self):
        inst = unit_instance(2, 1)
        verdict = L.is_pairwise_stable(inst, L.Network.empty(2))
        assert verdict.unstable
        assert verdict.witness == L.Move.make((0, 1), additions=[(0, 1)], concept="ps")
        deltas = L.move_deltas(inst, L.Network.empty(2), verdict.witness)
        assert all(L.is_inf(-d) for _, d in deltas)  # inf improvement

    def test_triangle_with_pricey_edges_sheds_one(self):
        inst = unit_instance(3, 3)
        net = L.Network.complete(3)
        verdict = L.is_pairwise_stable(inst, net)
        assert verdict.unstable
        assert verdict.witness.removals == ((0, 1),)
        assert dict(L.move_deltas(inst, net, verdict.witness))[0] == F(-2)

    def test_two_tier_star_ps_fixture_is_stable(self):
        fx = L.gen_metric_star(4, F(4), "ps")
        assert L.is_pairwise_stable(fx.instance, fx.stable_net).stable

    def test_witness_is_lexicographically_first(self):
        # both removals improve; the (0,) mover with its smallest edge wins
        inst = unit_instance(3, 5)
        verdict = L.is_pairwise_stable(inst, L.Network.complete(3))
        assert verdict.witness.coalition == (0,)
        assert verdict.witness.removals == ((0, 1),)


class TestBne:
    def test_two_tier_star_bne_fixture_is_stable(self):
        fx = L.gen_metric_star(5, F(16), "bne")
        assert L.is_bne(fx.instance, fx.stable_net).stable

    def test_rewire_through_cheap_hub(self):
        h = host([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
        inst = L.Instance(host=h, alpha=F(1))
        net = L.Network.from_pairs(3, [(0, 2), (1, 2)])
        verdict = L.is_bne(inst, net)
        assert verdict.unstable
        assert all(d < 0 for _, d in L.move_deltas(inst, net, verdict.witness))

    def test_bne_stable_implies_pairwise_stable(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(3, 5)
            inst = L.random_instance(n, "uniform", rng.randrange(10**6), F(rng.randint(1, 6)))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in pairs if rng.random() < 0.6]
            net = L.Network.from_pairs(n, edges)
            if L.is_bne(inst, net).stable:
                assert L.is_pairwise_stable(inst, net).stable


class TestBse:
    def test_zero_cluster_fixture_is_bse_stable(self):
        fx = L.gen_general_bse(4, F(2))
        assert L.is_bse(fx.instance, fx.stable_net).stable

    def test_two_isolated_nodes_unstable_as_coalition(self):
        inst = unit_instance(2, 1)
        verdict = L.is_bse(inst, L.Network.empty(2))
        assert verdict.unstable
        assert verdict.witness.coalition == (0, 1)

    def test_bne_stable_but_bse_unstable_regression(self):
        # found by seeded search over random n=4 instances (seed 0)
        h = host(
            [
                [0, 3, 0, 4],
                [3, 0, 3, "7/2"],
                [0, 3, 0, 9],
                [4, "7/2", 9, 0],
            ]
        )
        inst = L.Instance(host=h, alpha=F(9, 2))
        net = L.Network.from_pairs(4, [(0, 1), (0, 2), (2, 3)])
        assert L.is_bne(inst, net).stable
        verdict = L.is_bse(inst, net)
        assert verdict.unstable
        assert len(verdict.witness.coalition) >= 3
        assert all(d < 0 for _, d in L.move_deltas(inst, net, verdict.witness))

    def test_matches_unpruned_search_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(3, 4)
            inst = L.random_instance(n, "uniform", rng.randrange(10**6), F(rng.randint(1, 8), rng.choice([1, 2])))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in pairs if rng.random() < 0.55]
            net = L.Network.from_pairs(n, edges)
            expected = _naive_bse(inst, net)
            if expected is not None:
                gamma, rems, adds = expected
                expected = L.Move.make(gamma, rems, adds, concept="bse")
            verdict = L.is_bse(inst, net)
            assert verdict.status == ("stable" if expected is None else "unstable")
            assert verdict.witness == expected

    def test_witness_replays_to_strict_improvement(self):
        rng = random.Random(5)
        seen = 0
        for _ in range(40):
            n = rng.randint(3, 4)
            inst = L.random_instance(n, "uniform", rng.randrange(10**6), F(rng.randint(1, 5)))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e for e in pairs if rng.random() < 0.5]
            net = L.Network.from_pairs(n, edges)
            verdict = L.is_bse(inst, net)
            if verdict.unstable:
                seen += 1
                assert L.is_improving(inst, net, verdict.witness)
        assert seen > 5


def _naive_bse(inst, net):
    """Unpruned reference search used to cross-validate the checker."""
    eng = CostEngine(inst)
    gkey = net.edges
    eset = set(gkey)
    base = [eng.member_cost(gkey, u) for u in range(inst.n)]
    for size in range(1, inst.n + 1):
        for gamma in combinations(range(inst.n), size):
            members = set(gamma)
            removable = sorted(e for e in gkey if e[0] in members or e[1] in members)
            addable = sorted(
                (a, b) for a, b in combinations(gamma, 2) if (a, b) not in eset
            )
            for am in range(1 << len(addable)):
                adds = {addable[i] for i in range(len(addable)) if am >> i & 1}
                for rm in range(1 << len(removable)):
                    if am == 0 and rm == 0:
                        continue
                    rems = {removable[i] for i in range(len(removable)) if rm >> i & 1}
                    key = canonical_edges((eset | adds) - rems)
                    if all(eng.member_cost(key, m) < base[m] for m in gamma):
                        return gamma, rems, adds
    return None


def _naive_ps_moves(inst, net):
    """Unpruned pairwise search: every improving move in canonical order,
    each with its gain priced on a fresh state of the network it reaches.

    For each agent u in turn: its removals by increasing edge, then its
    additions to partners v > u by increasing v.
    """
    eng = CostEngine(inst)
    gkey = net.edges
    eset = set(gkey)
    base = [eng.member_cost(gkey, u) for u in range(inst.n)]
    for u in range(inst.n):
        for e in sorted(e for e in gkey if u in e):
            cost = eng.member_cost(canonical_edges(eset - {e}), u)
            if cost < base[u]:
                yield L.Move.make((u,), removals=(e,), concept="ps"), base[u] - cost
        for v in range(u + 1, inst.n):
            if (u, v) in eset:
                continue
            key = canonical_edges(eset | {(u, v)})
            cost_u, cost_v = eng.member_cost(key, u), eng.member_cost(key, v)
            if cost_u < base[u] and cost_v < base[v]:
                gain = base[u] - cost_u + base[v] - cost_v
                yield L.Move.make((u, v), additions=((u, v),), concept="ps"), gain


def _naive_ps(inst, net):
    """The first improving pairwise move in canonical order, or None."""
    found = next(_naive_ps_moves(inst, net), None)
    return None if found is None else found[0]


def _naive_bne_moves(inst, net):
    """Unpruned neighborhood search: every improving move in canonical
    order, each with its gain priced on a fresh state of the network it
    reaches.

    For each mover u in turn: addition sets to partners by increasing
    mask over u's sorted non-edges, then removal sets by increasing mask
    over u's sorted incident edges.
    """
    eng = CostEngine(inst)
    gkey = net.edges
    eset = set(gkey)
    base = [eng.member_cost(gkey, u) for u in range(inst.n)]
    for u in range(inst.n):
        removable = sorted(e for e in gkey if u in e)
        addable = sorted(
            (min(u, v), max(u, v))
            for v in range(inst.n)
            if v != u and (min(u, v), max(u, v)) not in eset
        )
        for am in range(1 << len(addable)):
            adds = [addable[i] for i in range(len(addable)) if am >> i & 1]
            partners = [a if b == u else b for a, b in adds]
            for rm in range(1 << len(removable)):
                if am == 0 and rm == 0:
                    continue
                rems = [removable[i] for i in range(len(removable)) if rm >> i & 1]
                key = canonical_edges((eset | set(adds)) - set(rems))
                costs = {m: eng.member_cost(key, m) for m in (u, *partners)}
                if all(cost < base[m] for m, cost in costs.items()):
                    move = L.Move.make(
                        (u, *partners), removals=rems, additions=adds, concept="bne"
                    )
                    yield move, sum(base[m] - cost for m, cost in costs.items())


def _naive_bne(inst, net):
    """The first improving neighborhood move in canonical order, or None."""
    found = next(_naive_bne_moves(inst, net), None)
    return None if found is None else found[0]


def _seeded_networks(seed, count, max_n):
    """Seeded (instance, network) pairs; every other host has zero-weight
    links, as in the zero_cluster fixture, so that some agents are dead."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, max_n)
        alpha = F(rng.randint(1, 8), rng.choice([1, 2]))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if i % 2:
            w = [[0] * n for _ in range(n)]
            for u, v in pairs:
                w[u][v] = w[v][u] = rng.choice([0, 0, 1, 2, 3])
            inst = L.Instance(host=host(w), alpha=alpha)
        else:
            inst = L.random_instance(n, rng.choice(L.MODELS), rng.randrange(10**6), alpha)
        density = rng.random()
        yield inst, L.Network.from_pairs(n, [e for e in pairs if rng.random() < density])


def _assert_same_verdicts_unpruned(monkeypatch, name, unpruned, cases=None, same_work=False):
    """Verdicts keep their status and witness, and with ``same_work`` also
    their moves evaluated and frontier, with ``_Search.<name>`` replaced
    by ``unpruned``. ``cases`` are (instance, network, concept, budget);
    by default seeded n<=5 networks (bse only for n<=4), unbudgeted."""
    if cases is None:
        cases = [
            (inst, net, concept, None)
            for inst, net in _seeded_networks(47, 100, 5)
            for concept in L.CONCEPTS
            if concept != "bse" or inst.n <= 4
        ]
    pruned = [L.check(inst, net, c, budget) for inst, net, c, budget in cases]
    monkeypatch.setattr(_Search, name, unpruned)
    for (inst, net, c, budget), verdict in zip(cases, pruned):
        other = L.check(inst, net, c, budget)
        assert (other.status, other.witness) == (verdict.status, verdict.witness)
        if same_work:
            assert (other.moves_evaluated, other.frontier) == (
                verdict.moves_evaluated,
                verdict.frontier,
            )
    assert any(v.unstable for v in pruned) and any(v.stable for v in pruned)


class TestPruneCrossCheck:
    """The dead-agent, affordability, gain-bound and coverage prunes discard
    only non-improving moves: unpruned searches find the same first witness
    (the coverage prune is checked against ``_naive_bse`` in ``TestBse``)."""

    @pytest.mark.parametrize("concept, naive", [("ps", _naive_ps), ("bne", _naive_bne)])
    def test_matches_unpruned_reference(self, concept, naive):
        unstable = 0
        for inst, net in _seeded_networks(31, 120, 5):
            verdict = L.check(inst, net, concept)
            expected = naive(inst, net)
            assert verdict.status == ("stable" if expected is None else "unstable")
            assert verdict.witness == expected
            unstable += expected is not None
        assert 0 < unstable < 120

    def test_every_agent_alive_and_unbounded_gives_same_verdicts(self, monkeypatch):
        prepare = _Search._prepare

        def prepare_unpruned(self, u):
            prepare(self, u)
            self.spend_cap[u] = INF  # every agent alive, every edge affordable

        _assert_same_verdicts_unpruned(monkeypatch, "_prepare", prepare_unpruned)

    def test_gain_bounds_off_gives_same_verdicts(self, monkeypatch):
        _assert_same_verdicts_unpruned(
            monkeypatch, "_bound_allows", lambda self, bound: bound is not None
        )


def _coalition_prune_cases():
    """(instance, network, concept, budget): seeded n<=5 networks for every
    concept, unbudgeted and under one cap each; the zero_cluster and
    two_tier_star fixtures at n=5-6 under bse with their stable,
    reference, empty and complete networks; and their stable networks
    under bne and bse, and their empty networks under bse, with each cap."""
    caps = (
        L.Budget(max_changes=1),
        L.Budget(max_changes=3),
        L.Budget(max_moves=7),
        L.Budget(max_coalition=2),
    )
    cases = []
    for i, (inst, net) in enumerate(_seeded_networks(67, 60, 5)):
        for concept in L.CONCEPTS:
            cases.append((inst, net, concept, None))
            cases.append((inst, net, concept, caps[i % len(caps)]))
    fixtures = [L.gen_general_bse(n, F(2)) for n in (5, 6)]
    fixtures += [L.gen_metric_star(n, F(alpha), "bse") for n in (5, 6) for alpha in (4, 7)]
    # the ps and bne stars are not bse-stable, but most coalitions there
    # walk many masks past unaffordable ones before the first witness
    fixtures += [L.gen_metric_star(5, F(4), "ps"), L.gen_metric_star(5, F(4), "bne")]
    fixtures += [L.gen_metric_star(6, F(4), "ps")]
    for fx in fixtures:
        n = fx.instance.n
        nets = (fx.stable_net, fx.reference_net, L.Network.empty(n), L.Network.complete(n))
        for net in nets:
            cases.append((fx.instance, net, "bse", None))
        for budget in caps + (L.Budget(max_changes=2), L.Budget(max_coalition=3)):
            for concept in ("bne", "bse"):
                cases.append((fx.instance, fx.stable_net, concept, budget))
            cases.append((fx.instance, L.Network.empty(n), "bse", budget))
    return cases


class TestCoalitionPrunes:
    """The coalition bound and the skip past unaffordable addition sets
    discard only moves that the per-set tests would have discarded
    uncounted: turned off, every verdict keeps its status, witness, moves
    evaluated and frontier."""

    def test_coalition_bound_off_gives_same_verdicts_and_work(self, monkeypatch):
        cases = _coalition_prune_cases()
        hopeless = _Search._coalition_hopeless
        fired = []

        def recording(self, movers, addable):
            fired.append(hopeless(self, movers, addable))
            return fired[-1]

        with monkeypatch.context() as patch:
            patch.setattr(_Search, "_coalition_hopeless", recording)
            for inst, net, concept, budget in cases:
                L.check(inst, net, concept, budget)
        assert any(fired)  # the prune ran and ruled some coalition out
        _assert_same_verdicts_unpruned(
            monkeypatch,
            "_coalition_hopeless",
            lambda self, movers, addable: False,
            cases,
            same_work=True,
        )

    def test_mask_skip_off_gives_same_verdicts_and_work(self, monkeypatch):
        cases = _coalition_prune_cases()
        past = _Search._past_supersets
        steps = []

        def recording(mask):
            steps.append(past(mask) - mask)
            return mask + steps[-1]

        with monkeypatch.context() as patch:
            patch.setattr(_Search, "_past_supersets", staticmethod(recording))
            for inst, net, concept, budget in cases:
                L.check(inst, net, concept, budget)
        assert max(steps) > 1  # the skip ran and stepped past some superset
        _assert_same_verdicts_unpruned(
            monkeypatch,
            "_past_supersets",
            staticmethod(lambda mask: mask + 1),
            cases,
            same_work=True,
        )

    def test_zero_cluster_8_work_is_pinned(self):
        # the coalition bound rules out 168 coalitions before their masks;
        # allowing a zero bound, sound but weaker, builds 32,895 states
        fx = L.gen_general_bse(8, F(2))
        engine = CostEngine(fx.instance)
        verdict = _run_checker(fx.instance, fx.stable_net, "bse", None, engine)
        assert (verdict.status, verdict.moves_evaluated) == ("stable", 192)
        assert len(engine._states) == 122  # one-mover moves build none of their own

    def test_zero_cluster_9_finishes_in_bounded_memory(self):
        # the unpruned search grew memory until MemoryError at this size
        code = (
            "from fractions import Fraction as F; import ncglab as L; "
            "fx = L.gen_general_bse(9, F(2)); "
            "print(L.is_bse(fx.instance, fx.stable_net).status)"
        )

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = os.path.dirname(os.path.dirname(L.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=limit_memory,
            env=env,
        )
        assert (done.returncode, done.stdout.strip()) == (0, "stable"), done.stderr


def _fixture_networks():
    """(instance, network): the zero_cluster and two_tier_star fixtures at
    n=5-6 with their stable, reference, empty and complete networks."""
    cases = []
    fixtures = [L.gen_general_bse(n, F(2)) for n in (5, 6)]
    fixtures += [L.gen_metric_star(n, F(4), v) for n in (5, 6) for v in ("ps", "bne", "bse")]
    for fx in fixtures:
        n = fx.instance.n
        for net in (fx.stable_net, fx.reference_net, L.Network.empty(n), L.Network.complete(n)):
            cases.append((fx.instance, net))
    return cases


def _mover_pricing_cases():
    """(instance, network): seeded n<=5 networks, then ``_fixture_networks``."""
    return list(_seeded_networks(71, 60, 5)) + _fixture_networks()


class TestMoverPricing:
    """A lone mover's bounds and moves, priced from the rows of G and of
    G - u, match pricing each network on its own engine state, for every
    addition set at u, affordable or not, and every removal set."""

    def test_bounds_and_costs_match_fresh_states(self):
        checked = improving = infinite = 0
        for inst, net in _mover_pricing_cases():
            n = inst.n
            engine, fresh = CostEngine(inst), CostEngine(inst)
            search = _Search(inst, net, None, engine)
            search._prepare_all()
            base = list(search.base)
            eset = set(net.edges)
            for u in range(n):
                addable = [(min(u, v), max(u, v)) for v in range(n) if v != u]
                addable = [e for e in addable if e not in eset]
                removable = [e for e in net.edges if u in e]
                pricing = _MoverPricing(search, u, addable)
                for a_mask in range(1 << len(addable)):
                    adds = [e for i, e in enumerate(addable) if a_mask >> i & 1]
                    added_inc = {u: 0}
                    for a, b in adds:
                        w = engine.W[a][b]
                        added_inc[u] += w
                        added_inc[b if a == u else a] = w
                    plus_key = canonical_edges(eset | set(adds))
                    plus_sum = pricing.plus_sums(a_mask)
                    for m in added_inc:
                        assert plus_sum(m) == fresh.dist_sum(plus_key, m)
                    for r_mask in range(1 << len(removable)):
                        if not (a_mask or r_mask):
                            continue
                        rems = [e for i, e in enumerate(removable) if r_mask >> i & 1]
                        key = canonical_edges((eset | set(adds)) - set(rems))
                        costs = {m: fresh.member_cost(key, m) for m in added_inc}
                        expected = None
                        if all(costs[m] < base[m] for m in costs):
                            expected = sum(base[m] - costs[m] for m in costs)
                            improving += 1
                        assert pricing.gain(added_inc, a_mask, r_mask) == expected
                        # with each base one above its exact cost, every
                        # member gains exactly 1: a cost off either way shows
                        for m in costs:
                            search.base[m] = costs[m] + 1
                        exact = None if any(is_inf(c) for c in costs.values()) else len(costs)
                        assert pricing.gain(added_inc, a_mask, r_mask) == exact
                        search.base[:] = base
                        infinite += exact is None
                        checked += 1
        assert checked > 6_000
        assert improving > 1_500
        assert infinite > 2_000


class TestCoalitionBoundMovers:
    """Only a coalition of two or more movers tries the coalition bound; a
    lone mover, every bne agent, is left to its per-set bounds."""

    def test_every_call_has_two_or_more_movers(self, monkeypatch):
        hopeless = _Search._coalition_hopeless
        sizes = []

        def recording(self, movers, addable):
            sizes.append(len(movers))
            return hopeless(self, movers, addable)

        monkeypatch.setattr(_Search, "_coalition_hopeless", recording)
        for inst, net in list(_seeded_networks(83, 60, 5)) + _fixture_networks():
            for concept in ("bne", "bse"):
                L.check(inst, net, concept)
        assert len(sizes) > 100 and min(sizes) >= 2


class TestPsPricing:
    """Every ps move is a lone mover's move, a pair being u's move with
    the single partner v, so ps reads the same rows as bne and bse."""

    def test_whole_move_stream_matches_fresh_states(self):
        cases = list(_seeded_networks(73, 150, 6)) + _fixture_networks()
        moves = 0
        for inst, net in cases:
            got = list(_Search(inst, net, None, CostEngine(inst)).moves("ps"))
            assert got == list(_naive_ps_moves(inst, net))
            moves += len(got)
        assert moves > 800

    def test_check_builds_only_g_and_g_minus_u(self):
        built = 0
        for inst, net in _seeded_networks(79, 300, 5):
            engine = CostEngine(inst)
            _run_checker(inst, net, "ps", None, engine)
            minus = {tuple(e for e in net.edges if u not in e) for u in range(inst.n)}
            assert set(engine._states) <= minus | {net.edges}
            built += len(engine._states) > 1
        assert built > 200  # most checks price some move from G - u


def _pinned_case(name):
    """(instance, network, budget) for the pinned-work cases."""
    if name == "zero_cluster_5":
        fx = L.gen_general_bse(5, F(2))
        return fx.instance, fx.stable_net, None
    if name == "empty_4_two_changes":
        fx = L.gen_general_bse(4, F(2))
        return fx.instance, L.Network.empty(4), L.Budget(max_changes=2)
    if name == "metric_star_5":
        fx = L.gen_metric_star(5, F(4), "bne")
        return fx.instance, fx.stable_net, None
    # index 11 is a host with zero-weight links, 18 a random-model host
    index = {"seeded_zero_links": 11, "seeded_random_model": 18}[name]
    inst, net = list(_seeded_networks(31, 19, 5))[index]
    return inst, net, None


def _witness(coalition, concept, removals=(), additions=()):
    return L.Move.make(coalition, removals, additions, concept=concept)


class TestPinnedWork:
    """Status, witness, moves evaluated and frontier of the ps, bne and bse
    searches: one joint mover/partner search must evaluate exactly the
    moves, in exactly the order, that the separate searches did, and ps
    priced from rows exactly those it priced on a state per network."""

    @pytest.mark.parametrize(
        "name, concept, expected",
        [
            ("zero_cluster_5", "bne", ("stable", None, 16, None)),
            ("zero_cluster_5", "bse", ("stable", None, 24, None)),
            (
                "empty_4_two_changes",
                "bne",
                ("inconclusive", None, 0, "agent 0: moves beyond 2 changes"),
            ),
            (
                "empty_4_two_changes",
                "bse",
                ("inconclusive", None, 0, "coalition (0, 1, 2): moves beyond 2 changes"),
            ),
            ("metric_star_5", "bne", ("stable", None, 19, None)),
            ("metric_star_5", "bse", ("stable", None, 494, None)),
            (
                "seeded_zero_links",
                "bne",
                ("unstable", _witness((3, 4), "bne", additions=[(3, 4)]), 15, None),
            ),
            (
                "seeded_zero_links",
                "bse",
                ("unstable", _witness((3, 4), "bse", additions=[(3, 4)]), 72, None),
            ),
            (
                "seeded_random_model",
                "bne",
                ("unstable", _witness((0, 2), "bne", additions=[(0, 2)]), 2, None),
            ),
            (
                "seeded_random_model",
                "bse",
                ("unstable", _witness((1,), "bse", removals=[(1, 2)]), 2, None),
            ),
            ("zero_cluster_5", "ps", ("stable", None, 11, None)),
            # ps reads no change cap, so it stays conclusive here
            ("empty_4_two_changes", "ps", ("stable", None, 6, None)),
            ("metric_star_5", "ps", ("stable", None, 14, None)),
            (
                "seeded_zero_links",
                "ps",
                ("unstable", _witness((3, 4), "ps", additions=[(3, 4)]), 13, None),
            ),
            (
                "seeded_random_model",
                "ps",
                ("unstable", _witness((0, 2), "ps", additions=[(0, 2)]), 3, None),
            ),
        ],
    )
    def test_verdict_and_work_unchanged(self, name, concept, expected):
        inst, net, budget = _pinned_case(name)
        verdict = L.check(inst, net, concept, budget=budget)
        got = (verdict.status, verdict.witness, verdict.moves_evaluated, verdict.frontier)
        assert got == expected


def _gain_cases():
    """(instance, network, concept) on seeded networks, then on random
    n=4..6 hosts from an empty start and from a start split into two
    components; bse only for n <= 4."""
    nets = list(_seeded_networks(53, 40, 5))
    rng = random.Random(59)
    for _ in range(12):
        n = rng.randint(4, 6)
        alpha = F(rng.randint(1, 6), rng.choice([1, 2]))
        inst = L.random_instance(n, rng.choice(L.MODELS), rng.randrange(10**6), alpha)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        half = n // 2
        split = [(u, v) for u, v in pairs if (u < half) == (v < half) and rng.random() < 0.7]
        nets += [(inst, L.Network.empty(n)), (inst, L.Network.from_pairs(n, split))]
    for inst, net in nets:
        for concept in L.CONCEPTS:
            if concept != "bse" or inst.n <= 4:
                yield inst, net, concept


def _price(inst, net, move):
    """The coalition's total gain from the move, priced on its own."""
    return -sum(delta for _, delta in L.move_deltas(inst, net, move))


class TestSearchGains:
    """Each move the search yields carries its coalition's total gain, and
    best-response takes the first move of the largest gain."""

    def test_yielded_gain_is_the_moves_price(self):
        infinite = finite = 0
        for inst, net, concept in _gain_cases():
            engine = CostEngine(inst)
            for move, gain in _Search(inst, net, None, engine).moves(concept):
                assert engine.to_cost(gain) == _price(inst, net, move) > 0
                infinite += L.is_inf(gain)
                finite += not L.is_inf(gain)
        assert infinite > 0 and finite > 0

    @pytest.mark.parametrize("budgeted", [False, True])
    def test_best_response_takes_the_first_largest_price(self, budgeted):
        outcomes = set()
        for inst, net, concept in _gain_cases():
            budget = None
            if budgeted:  # half the moves the whole search evaluates
                search = _Search(inst, net, None, CostEngine(inst))
                list(search.moves(concept))
                budget = L.Budget(max_moves=search.evaluated // 2)
            search = _Search(inst, net, budget, CostEngine(inst))
            moves = [move for move, _ in search.moves(concept)]
            prices = [_price(inst, net, move) for move in moves]
            if moves:
                expected = moves[prices.index(max(prices))]
            else:
                expected = "inconclusive" if search.frontier is not None else None
            try:
                got = L.find_improving_move(inst, net, concept, "best-response", budget)
            except InconclusiveSearch:
                got = "inconclusive"
            assert got == expected
            outcomes.add("move" if moves else expected)
        assert {"move", "inconclusive" if budgeted else None} <= outcomes

    def test_bare_iteration_yields_every_improving_bne_move(self):
        moves = 0
        for inst, net in _seeded_networks(61, 60, 5):
            got = list(_Search(inst, net, None, CostEngine(inst)).moves("bne"))
            assert got == list(_naive_bne_moves(inst, net))
            moves += len(got)
        assert moves > 300


def _best_response_cases():
    """(instance, network, concept) for the best-response bound: the bne
    and bse ``_gain_cases``, the ``_fixture_networks`` under bne and, at
    n=5, under bse (at n=6 a bse search with every move priced takes
    seconds on some of them), and a path start at n=8 under bne on a
    euclidean and a uniform host."""
    cases = [case for case in _gain_cases() if case[2] != "ps"]
    for inst, net in _fixture_networks():
        cases.append((inst, net, "bne"))
        if inst.n == 5:
            cases.append((inst, net, "bse"))
    path = L.Network.from_pairs(8, [(i, i + 1) for i in range(7)])
    for model in ("euclidean", "uniform"):
        cases.append((L.random_instance(8, model, 0, F(2)), path, "bne"))
    return cases


def _best_response_answers(cases):
    """Per case and per move budget (none, then 1, half and all but one
    of the moves the unbudgeted search evaluates): the best-response
    verdict's status, witness, moves evaluated and frontier, and the
    move ``find_improving_move`` returns, or "inconclusive"."""
    answers = []
    for inst, net, concept in cases:
        full = _run_checker(inst, net, concept, None, CostEngine(inst), True).moves_evaluated
        caps = sorted({1, full // 2, full - 1} - {-1})
        for budget in [None] + [L.Budget(max_moves=cap) for cap in caps]:
            verdict = _run_checker(inst, net, concept, budget, CostEngine(inst), True)
            try:
                found = L.find_improving_move(inst, net, concept, "best-response", budget)
            except InconclusiveSearch:
                found = "inconclusive"
            answers.append(
                (verdict.status, verdict.witness, verdict.moves_evaluated, verdict.frontier, found)
            )
    return answers


class TestBestResponseBound:
    """A best-response bne or bse search skips pricing the moves whose gain
    bound cannot beat the best move found so far; every skipped move still
    counts, so nothing a caller sees changes."""

    def test_bound_off_gives_same_answers(self, monkeypatch):
        cases = _best_response_cases()
        may_beat = _Search._may_beat_best
        skipped = []

        def recording(self, bound):
            skipped.append(not may_beat(self, bound))
            return not skipped[-1]

        with monkeypatch.context() as patch:
            patch.setattr(_Search, "_may_beat_best", recording)
            bounded = _best_response_answers(cases)
        assert sum(skipped) > len(skipped) // 2  # most moves are never priced
        monkeypatch.setattr(_Search, "_may_beat_best", lambda self, bound: True)
        assert _best_response_answers(cases) == bounded
        statuses = {answer[0] for answer in bounded}
        assert statuses == {"stable", "unstable", "inconclusive"}

    def test_first_found_and_bare_searches_carry_no_bound(self, monkeypatch):
        def refuse(self, bound):
            raise AssertionError("a search that keeps every move ran the bound")

        monkeypatch.setattr(_Search, "_may_beat_best", refuse)
        for inst, net, concept in _best_response_cases():
            L.check(inst, net, concept)
            L.find_improving_move(inst, net, concept, "first-found")
            if concept == "bne" or inst.n <= 4:
                search = _Search(inst, net, None, CostEngine(inst))
                assert all(gain > 0 for _, gain in search.moves(concept))
                assert search.best is None


class TestBudgets:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda fx: L.check(fx.instance, fx.stable_net, "bse", budget={"max_moves": 1}),
            lambda fx: L.enumerate_stable(fx.instance, "ps", budget=5),
            lambda fx: L.verify_fixture(fx, budget=3),
        ],
        ids=["check", "enumerate_stable", "verify_fixture"],
    )
    def test_a_budget_that_is_not_a_budget_is_an_input_error(self, entry):
        # refused where the budget enters the search, not mid-search
        with pytest.raises(L.LabInputError, match="budget must be a Budget"):
            entry(L.gen_general_bse(4, F(2)))

    def test_tiny_move_budget_is_inconclusive_not_stable(self):
        fx = L.gen_general_bse(5, F(2))
        verdict = L.is_bse(fx.instance, fx.stable_net, budget=L.Budget(max_moves=3))
        assert verdict.inconclusive
        assert "budget" in verdict.frontier

    def test_coalition_cap_is_inconclusive_when_binding(self):
        fx = L.gen_general_bse(4, F(2))
        verdict = L.is_bse(fx.instance, fx.stable_net, budget=L.Budget(max_coalition=2))
        assert verdict.inconclusive
        assert "coalition" in verdict.frontier

    def test_change_cap_is_inconclusive_when_binding(self):
        fx = L.gen_general_bse(4, F(2))
        verdict = L.is_bse(fx.instance, fx.stable_net, budget=L.Budget(max_changes=1))
        assert verdict.inconclusive
        assert "changes" in verdict.frontier

    def test_change_cap_still_finds_small_witnesses(self):
        inst = L.Instance(
            host=L.validate_host([[F(0), F(1)], [F(1), F(0)]]), alpha=F(1)
        )
        verdict = L.is_bse(inst, L.Network.empty(2), budget=L.Budget(max_changes=1))
        assert verdict.unstable

    def test_zero_coalition_cap_searches_nothing(self):
        fx = L.gen_general_bse(4, F(2))
        budget = L.Budget(max_coalition=0)
        verdict = L.is_bse(fx.instance, L.Network.empty(4), budget=budget)
        assert verdict.inconclusive
        assert verdict.moves_evaluated == 0

    def test_check_passes_the_budget_to_ps(self):
        # the same cap that stops ps dynamics stops a ps check
        fx = L.gen_general_bse(4, F(2))
        budget = L.Budget(max_moves=0)
        verdict = L.check(fx.instance, L.Network.empty(4), "ps", budget=budget)
        assert verdict.inconclusive
        assert verdict.moves_evaluated == 0
        trace = L.run_dynamics(fx.instance, L.Network.empty(4), "ps", budget=budget)
        assert trace.outcome == "budget-exhausted"
        # unbudgeted, the search finishes (one edge leaves everyone infinite)
        assert L.is_pairwise_stable(fx.instance, L.Network.empty(4)).stable

    def test_move_budget_counts_only_evaluated_moves(self):
        fx = L.gen_general_bse(4, F(2))
        budget = L.Budget(max_moves=0)
        assert L.is_bse(fx.instance, L.Network.empty(4), budget=budget).moves_evaluated == 0
        fx = L.gen_general_bse(5, F(2))
        verdict = L.is_bse(fx.instance, fx.stable_net, budget=L.Budget(max_moves=3))
        assert (verdict.status, verdict.moves_evaluated) == ("inconclusive", 3)

    def test_each_cap_binds_only_for_the_concepts_its_docstring_names(self):
        # on two nodes the only improving move adds edge 01 for coalition
        # {0, 1}: a zero cap that binds leaves the check inconclusive, and
        # one that does not leaves that move to be found
        inst = unit_instance(2, 1)
        binds = {
            cap: [
                concept
                for concept in L.CONCEPTS
                if L.check(inst, L.Network.empty(2), concept, L.Budget(**{cap: 0})).inconclusive
            ]
            for cap in ("max_coalition", "max_changes", "max_moves")
        }
        assert binds == {
            "max_coalition": ["bse"],
            "max_changes": ["bne", "bse"],
            "max_moves": ["ps", "bne", "bse"],
        }
        for cap, concepts in binds.items():
            assert f"{cap}: {', '.join(concepts)}" in L.Budget.__doc__
        # a cap that does not bind still lets the witness exceed it
        witness = L.is_bne(inst, L.Network.empty(2), L.Budget(max_coalition=1)).witness
        assert witness.coalition == (0, 1)

    def test_generous_budget_still_concludes(self):
        fx = L.gen_general_bse(4, F(2))
        verdict = L.is_bse(
            fx.instance, fx.stable_net, budget=L.Budget(max_coalition=4, max_moves=10**6)
        )
        assert verdict.stable


@pytest.mark.parametrize(
    "entry",
    [
        lambda inst, net: L.check(inst, net, "xx"),
        lambda inst, net: L.enumerate_stable(inst, "xx"),
        lambda inst, net: L.poa_point(inst, "xx"),
        lambda inst, net: L.run_dynamics(inst, net, "xx"),
        lambda inst, net: L.find_improving_move(inst, net, "xx"),
    ],
    ids=["check", "enumerate_stable", "poa_point", "run_dynamics", "find_improving_move"],
)
def test_unknown_concept_is_an_input_error_everywhere(entry):
    inst = L.random_instance(4, "tree", 0, F(2))
    net = L.Network.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    know = r"unknown concept 'xx'; know \('ps', 'bne', 'bse'\)"
    with pytest.raises(L.LabInputError, match=know):
        entry(inst, net)


_ADD_01 = L.Move.make((0, 1), additions=[(0, 1)])


@pytest.mark.parametrize(
    "entry",
    [
        lambda inst: L.move_deltas(inst, L.Network.empty(5), _ADD_01),
        lambda inst: L.is_improving(inst, L.Network.empty(3), _ADD_01),
        lambda inst: L.best_single_removal(inst, L.Network.complete(4), 7),
        lambda inst: L.best_single_removal(inst, L.Network.complete(5), 0),
        lambda inst: L.check(inst, L.Network.empty(5), "ps"),
        lambda inst: L.shortest_distances(L.Network.empty(5), inst.host),
        lambda inst: L.shortest_path_tree(L.Network.complete(4), inst.host, 7),
        lambda inst: L.shortest_path_tree(L.Network.complete(4), inst.host, -1),
        lambda inst: L.shortest_path_tree(L.Network.complete(5), inst.host, 0),
    ],
    ids=[
        "move_deltas", "is_improving", "best_single_removal-agent",
        "best_single_removal-network", "check", "shortest_distances",
        "shortest_path_tree-root", "shortest_path_tree-negative-root",
        "shortest_path_tree-network",
    ],
)
def test_mismatched_inputs_are_input_errors(entry):
    with pytest.raises(L.LabInputError, match="disagree on node count|outside nodes"):
        entry(unit_instance(4, 1))


class TestBestSingleRemoval:
    def test_triangle(self):
        inst = unit_instance(3, 3)
        edge, delta = L.best_single_removal(inst, L.Network.complete(3), 0)
        assert edge == (0, 1)
        assert delta == F(-2)

    def test_tree_edges_never_improve(self):
        inst = unit_instance(4, 2)
        star = L.Network.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
        edge, delta = L.best_single_removal(inst, star, 0)
        assert L.is_inf(delta)

    def test_isolated_agent_has_no_removal(self):
        inst = unit_instance(3, 1)
        assert L.best_single_removal(inst, L.Network.from_pairs(3, [(1, 2)]), 0) is None

    def test_single_removal_dominance_against_subset_bruteforce(self):
        rng = random.Random(21)
        engine_cache = {}
        for _ in range(300):
            n = rng.randint(3, 6)
            inst = L.random_instance(n, "uniform", rng.randrange(10**6), F(rng.randint(1, 9), rng.choice([1, 2, 3])))
            eng = CostEngine(inst)
            spanning = [(i, rng.randrange(i)) for i in range(1, n)]
            extra = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            ]
            net = L.Network.from_pairs(n, spanning + extra)
            u = rng.randrange(n)
            incident = sorted(e for e in net.edges if u in e)
            if len(incident) < 2:
                continue
            base = eng.member_cost(net.edges, u)
            improving_subset_exists = False
            for mask in range(1, 1 << len(incident)):
                subset = {incident[i] for i in range(len(incident)) if mask >> i & 1}
                after = eng.member_cost(canonical_edges(set(net.edges) - subset), u)
                if after < base:
                    improving_subset_exists = True
                    break
            if improving_subset_exists:
                _, delta = L.best_single_removal(inst, net, u)
                assert delta < 0


class TestExactBoundaries:
    def test_zero_delta_addition_is_not_improving(self):
        # in the zero_cluster fixture, a cluster agent buying its weight-1
        # link saves exactly what it pays: delta must be exactly zero
        fx = L.gen_general_bse(4, F(2))
        move = L.Move.make((1, 3), additions=[(1, 3)], concept="ps")
        deltas = dict(L.move_deltas(fx.instance, fx.stable_net, move))
        assert deltas[1] == F(0)
        assert deltas[3] < 0
        assert not L.is_improving(fx.instance, fx.stable_net, move)

    def test_rounding_prone_boundary_is_pairwise_stable(self):
        # found by seeded search: float costs turn this zero-delta boundary
        # into a phantom improvement; exact costs keep it stable
        h = host([[0, "8/5", "1/3"], ["8/5", 0, "23/3"], ["1/3", "23/3", 0]])
        inst = L.Instance(host=h, alpha=F(4))
        net = L.Network.from_pairs(3, [(0, 2), (1, 2)])
        assert L.is_pairwise_stable(inst, net).stable


class TestContainment:
    def test_nested_verdicts_on_enumerated_networks(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randint(3, 4)
            inst = L.random_instance(n, "tree", rng.randrange(10**6), F(rng.randint(1, 5)))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for mask in range(1, 1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                net = L.Network.from_pairs(n, edges)
                bse = L.is_bse(inst, net).stable
                bne = L.is_bne(inst, net).stable
                ps = L.is_pairwise_stable(inst, net).stable
                if bse:
                    assert bne
                if bne:
                    assert ps
