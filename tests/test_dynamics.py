from fractions import Fraction as F

import pytest

import ncglab as L
import ncglab.dynamics as D
from ncglab.errors import InconclusiveSearch, LabInputError


def unit_instance(n, alpha):
    w = [[F(0) if u == v else F(1) for v in range(n)] for u in range(n)]
    return L.Instance(host=L.validate_host(w), alpha=F(alpha))


class TestFindImprovingMove:
    def test_stable_fixture_has_no_move(self):
        fx = L.gen_general_bse(4, F(2))
        assert L.find_improving_move(fx.instance, fx.stable_net, "bse") is None

    def test_two_isolated_nodes_add_their_edge(self):
        inst = unit_instance(2, 1)
        move = L.find_improving_move(inst, L.Network.empty(2), "ps")
        assert move.additions == ((0, 1),)

    def test_pricey_triangle_first_found_removal(self):
        inst = unit_instance(3, 3)
        move = L.find_improving_move(inst, L.Network.complete(3), "ps")
        assert move.removals == ((0, 1),)
        assert move.coalition == (0,)

    def test_best_response_takes_largest_total_gain(self):
        # node 3 is a cheap hub making both of node 0's heavy edges useless;
        # first-found sheds the first one, best-response the priciest one
        w = [
            [F(0), F(4), F(6), F(1)],
            [F(4), F(0), F(2), F(1)],
            [F(6), F(2), F(0), F(1)],
            [F(1), F(1), F(1), F(0)],
        ]
        inst = L.Instance(host=L.validate_host(w), alpha=F(3))
        net = L.Network.complete(4)
        first = L.find_improving_move(inst, net, "ps", policy="first-found")
        best = L.find_improving_move(inst, net, "ps", policy="best-response")
        assert first.removals == ((0, 1),)
        assert dict(L.move_deltas(inst, net, first))[0] == F(-12)
        assert best.removals == ((0, 2),)
        assert dict(L.move_deltas(inst, net, best))[0] == F(-18)

    def test_unknown_policy_rejected(self):
        # a deleted policy's name must not fall through to a remaining one
        inst, net = unit_instance(3, 1), L.Network.empty(3)
        know = r"unknown policy 'guided-first'; know \('first-found', 'best-response'\)"
        for call in (
            lambda: L.find_improving_move(inst, net, "bse", policy="guided-first"),
            lambda: L.run_dynamics(inst, net, "bse", policy="guided-first", max_steps=0),
        ):
            with pytest.raises(LabInputError, match=know):
                call()

    def test_budget_exhaustion_propagates(self):
        fx = L.gen_general_bse(5, F(2))
        with pytest.raises(InconclusiveSearch):
            L.find_improving_move(
                fx.instance, fx.stable_net, "bse", budget=L.Budget(max_moves=2)
            )


class TestRunDynamics:
    def test_stable_start_is_zero_step_equilibrium(self):
        fx = L.gen_general_bse(4, F(2))
        trace = L.run_dynamics(fx.instance, fx.stable_net, "bse", max_steps=10)
        assert trace.outcome == "equilibrium"
        assert trace.steps == ()
        assert trace.final == fx.stable_net

    def test_two_nodes_build_their_edge_in_one_step(self):
        inst = unit_instance(2, 1)
        trace = L.run_dynamics(inst, L.Network.empty(2), "ps", max_steps=10)
        assert trace.outcome == "equilibrium"
        assert len(trace.steps) == 1
        assert trace.final.edges == ((0, 1),)

    def test_complete_start_on_star_host_reaches_ps_equilibrium(self):
        fx = L.gen_metric_star(5, F(4), "ps")
        trace = L.run_dynamics(
            fx.instance, L.Network.complete(5), "ps", max_steps=200
        )
        assert trace.outcome == "equilibrium"
        assert L.is_pairwise_stable(fx.instance, trace.final).stable

    def test_equilibrium_outcomes_pass_the_checker(self):
        for seed in range(6):
            inst = L.random_instance(4, "uniform", seed, F(2))
            trace = L.run_dynamics(inst, L.Network.complete(4), "ps", max_steps=200)
            if trace.outcome == "equilibrium":
                assert L.is_pairwise_stable(inst, trace.final).stable

    def test_every_recorded_step_improves_its_movers(self):
        inst = L.random_instance(5, "uniform", 17, F(1, 2))
        net = L.Network.complete(5)
        trace = L.run_dynamics(inst, net, "bne", max_steps=100)
        for move, _cost in trace.steps:
            assert L.is_improving(inst, net, move)
            net = L.apply_move(net, move)
        assert net == trace.final

    def test_social_cost_recorded_per_step(self):
        inst = unit_instance(3, 5)
        trace = L.run_dynamics(inst, L.Network.complete(3), "ps", max_steps=50)
        engine_costs = [cost for _move, cost in trace.steps]
        assert engine_costs  # at least one removal happens at alpha=5
        net = trace.initial
        for (move, cost) in trace.steps:
            net = L.apply_move(net, move)
            assert L.cost_report(inst, net).social_total == cost

    def test_budget_exhausted_is_reported_not_silent(self):
        inst = unit_instance(4, F(1, 4))  # cheap edges: many additions to make
        trace = L.run_dynamics(inst, L.Network.empty(4), "bse", max_steps=1)
        assert trace.outcome == "budget-exhausted"
        assert "steps exhausted" in trace.note

    def test_checker_budget_folds_into_budget_outcome(self):
        fx = L.gen_general_bse(5, F(2))
        trace = L.run_dynamics(
            fx.instance,
            fx.stable_net,
            "bse",
            max_steps=5,
            budget=L.Budget(max_moves=2),
        )
        assert trace.outcome == "budget-exhausted"
        assert "checker budget" in trace.note

    def test_cycle_detection_reports_first_revisit(self, monkeypatch):
        # no genuine improving cycle was found at desk scale (seeded search
        # over thousands of instances converged every time), so the
        # detector is driven by a scripted move search that oscillates
        inst = unit_instance(2, 1)
        add = L.Move.make((0, 1), additions=[(0, 1)], concept="ps")
        remove = L.Move.make((0,), removals=[(0, 1)], concept="ps")

        def mover(_inst, net, *args, **kwargs):
            return add if not net.edges else remove

        monkeypatch.setattr(D, "find_improving_move", mover)
        trace = L.run_dynamics(inst, L.Network.empty(2), "ps", max_steps=10)
        assert trace.outcome == "cycle"
        assert trace.cycle_start == 0
        assert trace.cycle_period == 2

    def test_negative_max_steps_rejected(self):
        inst = unit_instance(2, 1)
        with pytest.raises(LabInputError):
            L.run_dynamics(inst, L.Network.empty(2), "ps", max_steps=-1)

    @pytest.mark.parametrize("max_steps", [2.5, True, "3", None])
    def test_max_steps_must_be_a_non_negative_int(self, max_steps):
        # unchecked, 2.5 never bound and True ran as 1 step
        inst = L.random_instance(6, "uniform", 0, F(2))
        with pytest.raises(LabInputError, match="max_steps must be an int >= 0"):
            L.run_dynamics(inst, L.Network.complete(6), "ps", max_steps=max_steps)

    def test_deterministic_traces(self):
        inst = L.random_instance(5, "uniform", 4, F(2))
        a = L.run_dynamics(inst, L.Network.complete(5), "ps", max_steps=100)
        b = L.run_dynamics(inst, L.Network.complete(5), "ps", max_steps=100)
        assert a == b
