import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

import ncglab as L
from ncglab import serialize as S
from ncglab.errors import (
    AdditionOutsideCoalition,
    LabInputError,
    MoveError,
    RemovalOutsideCoalition,
)


def sample_instance():
    return L.random_instance(4, "uniform", 5, F(7, 2))


class TestInstanceFiles:
    def test_roundtrip(self):
        inst = sample_instance()
        text = S.instance_to_json(inst)
        back = S.instance_from_json(text)
        assert back.alpha == inst.alpha
        assert back.host.weights == inst.host.weights

    def test_format_fields(self):
        data = json.loads(S.instance_to_json(sample_instance()))
        assert data["version"] == 1
        assert data["n"] == 4
        assert isinstance(data["alpha"], str)
        assert len(data["weights"]) == 4

    def test_integer_shorthand_accepted(self):
        text = json.dumps(
            {"version": 1, "n": 2, "alpha": 3, "weights": [[0, "5/2"], ["5/2", 0]]}
        )
        inst = S.instance_from_json(text)
        assert inst.alpha == F(3)
        assert inst.host.weights[0][1] == F(5, 2)

    @pytest.mark.parametrize("model, metric", [("tree", True), ("uniform", False)])
    def test_metric_hint_always_written(self, model, metric):
        # computed from the weights, whether or not anything verified the host
        inst = L.random_instance(4, model, 1, F(2))
        data = json.loads(S.instance_to_json(inst))
        assert data["metric_hint"] is metric
        assert data["metric_hint"] is L.is_metric(inst.host).is_metric

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(version=2),
            lambda d: d.update(alpha="0"),
            lambda d: d.update(alpha="-1/2"),
            lambda d: d.update(weights=[["0", "1"], ["2", "0"]]),
            lambda d: d.update(weights=[["0"]]),
            lambda d: d.update(alpha="x"),
            # a string row would be read one character per weight
            lambda d: d.update(n=3, weights=["012", "103", "230"]),
            lambda d: d.update(n="2"),
            lambda d: d.update(n=2.0),
        ],
    )
    def test_malformed_rejected(self, mutate):
        data = json.loads(S.instance_to_json(sample_instance()))
        data["n"] = 2
        data["weights"] = [["0", "1"], ["1", "0"]]
        mutate(data)
        with pytest.raises(LabInputError):
            S.instance_from_json(json.dumps(data))

    def test_garbage_rejected(self):
        with pytest.raises(LabInputError):
            S.instance_from_json("not json")


class TestNetworkFiles:
    def test_roundtrip_and_canonical_order(self):
        net = L.Network.from_pairs(4, [(2, 0), (3, 1)])
        text = S.network_to_json(net)
        assert json.loads(text)["edges"] == [[0, 2], [1, 3]]
        assert S.network_from_json(text, 4) == net

    def test_rejects_out_of_range(self):
        with pytest.raises(LabInputError):
            S.network_from_json('{"edges": [[0, 9]]}', 4)


class TestWitnessFiles:
    def test_witness_roundtrip(self):
        inst = L.Instance(
            host=L.validate_host([[F(0), F(1)], [F(1), F(0)]]), alpha=F(1)
        )
        net = L.Network.empty(2)
        verdict = L.is_pairwise_stable(inst, net)
        deltas = L.move_deltas(inst, net, verdict.witness)
        text = S.witness_to_json(verdict.witness, deltas)
        data = json.loads(text)
        assert data["concept"] == "PS"
        assert data["coalition"] == [0, 1]
        assert data["add"] == [[0, 1]]
        assert data["deltas"]["0"] == "-inf"
        move = S.witness_from_json(text)
        assert move == verdict.witness

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coalition", [0.5]),
            ("coalition", "01"),
            ("remove", ["01"]),
            ("add", [[1.7, 2]]),
            ("add", [[True, 3]]),
            ("add", [[0, 1, 2]]),
        ],
    )
    def test_rejects_non_integer_node_ids(self, field, value):
        with pytest.raises(LabInputError):
            S.witness_from_json(json.dumps({"concept": "BSE", field: value}))

    @pytest.mark.parametrize(
        "data, error",
        [
            ({}, MoveError),
            ({"concept": "XX", "coalition": [0]}, MoveError),
            ({"concept": "PS", "coalition": []}, MoveError),
            ({"concept": "BSE", "coalition": [0], "add": [[0, 1]]}, AdditionOutsideCoalition),
            ({"concept": "BNE", "coalition": [2], "remove": [[0, 1]]}, RemovalOutsideCoalition),
        ],
    )
    def test_rejects_moves_no_checker_makes(self, data, error):
        with pytest.raises(error):
            S.witness_from_json(json.dumps(data))
        assert issubclass(error, LabInputError)

    def test_accepts_a_removal_with_one_endpoint_in_the_coalition(self):
        move = S.witness_from_json(
            json.dumps({"concept": "BNE", "coalition": [1], "remove": [[0, 1]], "add": []})
        )
        assert move == L.Move.make((1,), removals=[(0, 1)], concept="bne")

    def test_finite_deltas_serialized_exactly(self):
        fx = L.gen_general_bse(4, F(2))
        broken = L.Network.from_pairs(4, list(fx.stable_net.edges) + [(1, 3)])
        verdict = L.is_bse(fx.instance, broken)
        assert verdict.unstable
        deltas = L.move_deltas(fx.instance, broken, verdict.witness)
        data = json.loads(S.witness_to_json(verdict.witness, deltas))
        for node, delta in deltas:
            assert data["deltas"][str(node)] == L.format_rational(delta)


class TestFixtureBundles:
    def test_roundtrip_all_families(self):
        for fx in (
            L.gen_general_bse(4, F(2)),
            L.gen_general_bse(5, F(1, 2)),
            L.gen_metric_star(5, F(16), "ps"),
            L.gen_metric_star(5, F(16), "bne"),
            L.gen_metric_star(5, F(16), "bse"),
            L.gen_metric_path(6, F(36)),
        ):
            text = S.fixture_to_json(fx)
            back = S.fixture_from_json(text)
            assert S.fixture_to_json(back) == text
            assert back.family == fx.family
            assert back.claimed_concept == fx.claimed_concept
            assert back.expected_ratio == fx.expected_ratio
            assert back.stable_net == fx.stable_net
            assert back.reference_net == fx.reference_net
            assert back.instance.host.weights == fx.instance.host.weights
            assert back.ratio_is_asymptotic_only == fx.ratio_is_asymptotic_only


class TestOptAndTraceFiles:
    def test_opt_payload(self):
        inst = sample_instance()
        opt = L.brute_force_opt(inst)
        data = json.loads(S.opt_to_json(opt))
        assert data["proven"] is True
        assert L.parse_rational(data["cost"]) == opt.cost

    def test_trace_payload(self):
        inst = L.Instance(
            host=L.validate_host([[F(0), F(1)], [F(1), F(0)]]), alpha=F(1)
        )
        trace = L.run_dynamics(inst, L.Network.empty(2), "ps", max_steps=5)
        data = json.loads(S.trace_to_json(trace))
        assert data["outcome"] == "equilibrium"
        assert data["steps"][0]["add"] == [[0, 1]]
        assert data["steps"][0]["social_cost"] == "4"


class TestSweepConfigFiles:
    def test_roundtrip(self):
        cfg = L.SweepConfig(
            family="random",
            concept="ps",
            n_values=(3, 4),
            alphas=(F(1, 2), F(2)),
            model="tree",
            count=5,
            seed=11,
            budget=L.Budget(max_moves=100),
        )
        back = S.sweep_config_from_json(S.sweep_config_to_json(cfg))
        assert back == cfg

    def test_missing_field_rejected(self):
        with pytest.raises(LabInputError):
            S.sweep_config_from_json('{"family": "random"}')
        required = {"family": "random", "concept": "ps", "n_values": [4], "alphas": ["2"]}
        for field in required:
            text = json.dumps({k: v for k, v in required.items() if k != field})
            with pytest.raises(LabInputError, match=f"'{field}'"):
                S.sweep_config_from_json(text)

    def test_unknown_fields_are_listed(self):
        fields = {"family": "random", "concept": "ps", "n_values": [4], "alphas": [2]}
        text = json.dumps(fields | {"zz": 1, "a": 2})
        with pytest.raises(LabInputError, match=r"^unknown sweep config field\(s\) \['a', 'zz'\]$"):
            S.sweep_config_from_json(text)

    def test_file_spellings(self):
        # concept and variant in any case; an empty variant or budget is none
        base = {"family": "two_tier_star", "n_values": [4], "alphas": ["2"]}
        upper = S.sweep_config_from_json(
            json.dumps(base | {"concept": "BSE", "variant": "BSE", "budget": {"max_moves": 5}})
        )
        assert (upper.concept, upper.variant, upper.budget) == ("bse", "bse", L.Budget(max_moves=5))
        empty = S.sweep_config_from_json(
            json.dumps(base | {"concept": "Ps", "variant": "", "budget": {}})
        )
        assert (empty.concept, empty.variant, empty.budget) == ("ps", None, None)
        assert (empty.model, empty.count, empty.seed) == ("uniform", 1, 0)

    def test_written_bytes_are_pinned(self):
        # every field is written, the budget only when there is one
        cfg = L.SweepConfig(family="two_tier_star", concept="bne", n_values=(4, 5), alphas=("9/4",))
        assert S.sweep_config_to_json(cfg) == (
            '{\n  "alphas": [\n    "9/4"\n  ],\n  "concept": "bne",\n  "count": 1,\n'
            '  "family": "two_tier_star",\n  "model": "uniform",\n'
            '  "n_values": [\n    4,\n    5\n  ],\n  "seed": 0,\n  "variant": null\n}\n'
        )
        budgeted = json.loads(S.sweep_config_to_json(replace(cfg, budget=L.Budget(max_moves=9))))
        assert budgeted["budget"] == {"max_coalition": None, "max_changes": None, "max_moves": 9}


def test_dumps_are_deterministic():
    inst = sample_instance()
    assert S.instance_to_json(inst) == S.instance_to_json(inst)
    fx = L.gen_general_bse(4, F(2))
    assert S.fixture_to_json(fx) == S.fixture_to_json(fx)
