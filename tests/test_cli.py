import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

import ncglab as L
from ncglab import harness, properties
from ncglab import serialize as S
from ncglab.cli import build_parser, main
from ncglab.errors import BoundViolation


@pytest.fixture
def workdir(tmp_path):
    fx = L.gen_general_bse(4, F(2))
    paths = {
        "fixture": tmp_path / "fixture.json",
        "instance": tmp_path / "instance.json",
        "stable": tmp_path / "stable.json",
        "reference": tmp_path / "reference.json",
        "broken": tmp_path / "broken.json",
    }
    paths["fixture"].write_text(S.fixture_to_json(fx))
    paths["instance"].write_text(S.instance_to_json(fx.instance))
    paths["stable"].write_text(S.network_to_json(fx.stable_net))
    paths["reference"].write_text(S.network_to_json(fx.reference_net))
    overbuilt = L.Network.from_pairs(4, list(fx.stable_net.edges) + [(1, 3)])
    paths["broken"].write_text(S.network_to_json(overbuilt))
    paths["empty"] = tmp_path / "empty.json"
    paths["empty"].write_text(S.network_to_json(L.Network.empty(4)))
    paths["dir"] = tmp_path
    return paths


class TestCheck:
    def test_stable_exits_zero(self, workdir, capsys):
        rc = main(["check", str(workdir["instance"]), str(workdir["stable"]), "--concept", "bse"])
        assert rc == 0
        assert "stable" in capsys.readouterr().out

    def test_unstable_exits_one_with_witness(self, workdir, capsys, tmp_path):
        out = tmp_path / "witness.json"
        rc = main(
            [
                "check",
                str(workdir["instance"]),
                str(workdir["broken"]),
                "--concept",
                "bse",
                "--witness-out",
                str(out),
            ]
        )
        assert rc == 1
        witness = json.loads(out.read_text())
        assert witness["concept"] == "BSE"
        move = S.witness_from_json(out.read_text())
        inst = S.instance_from_json(workdir["instance"].read_text())
        net = S.network_from_json(workdir["broken"].read_text(), inst.n)
        assert L.is_improving(inst, net, move)

    def test_budget_exhaustion_exits_two(self, workdir):
        rc = main(
            [
                "check",
                str(workdir["instance"]),
                str(workdir["stable"]),
                "--concept",
                "bse",
                "--max-moves",
                "1",
            ]
        )
        assert rc == 2

    def test_zero_caps_are_budgets_not_ignored(self, workdir, capsys):
        # each zero cap admits no move, so the empty network stays undecided
        files = [str(workdir["instance"]), str(workdir["empty"])]
        for concept, flag in (
            ("bse", "--max-moves"),
            ("bse", "--max-coalition"),
            ("bse", "--max-changes"),
            ("ps", "--max-moves"),
        ):
            rc = main(["check", *files, "--concept", concept, flag, "0"])
            assert rc == 2, (concept, flag)
            assert "witness" not in capsys.readouterr().out

    def test_missing_file_exits_three(self, workdir):
        rc = main(["check", "/nonexistent.json", str(workdir["stable"]), "--concept", "ps"])
        assert rc == 3

    def test_bad_flag_exits_three(self, workdir):
        files = [str(workdir["instance"]), str(workdir["stable"])]
        for bad in (
            ["--concept", "nope"],
            ["--concept", "ps", "--inexact"],
            ["--concept", "ps", "--max-moves", "-1"],
        ):
            assert main(["check", *files, *bad]) == 3, bad


def _host(rows):
    return L.validate_host([[F(x) for x in row] for row in rows])


# the three unstable cases of test_stability.py and the exact witness
# files that `check --witness-out` writes for them
_PINNED_WITNESSES = {
    "ps-triangle": (
        _host([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        3,
        [(0, 1), (0, 2), (1, 2)],
        "ps",
        {"add": [], "coalition": [0], "concept": "PS", "deltas": {"0": "-2"},
         "remove": [[0, 1]]},
    ),
    "bne-cheap-hub": (
        _host([[0, 1, 10], [1, 0, 1], [10, 1, 0]]),
        1,
        [(0, 2), (1, 2)],
        "bne",
        {"add": [[0, 1]], "coalition": [0, 1], "concept": "BNE",
         "deltas": {"0": "-17", "1": "-9"}, "remove": []},
    ),
    "bse-n4-regression": (
        _host([[0, 3, 0, 4], [3, 0, 3, "7/2"], [0, 3, 0, 9], [4, "7/2", 9, 0]]),
        F(9, 2),
        [(0, 1), (0, 2), (2, 3)],
        "bse",
        {"add": [[0, 3], [1, 2]], "coalition": [0, 1, 2, 3], "concept": "BSE",
         "deltas": {"0": "-1/2", "1": "-5", "2": "-32", "3": "-75/2"},
         "remove": [[0, 1], [2, 3]]},
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_WITNESSES))
def test_witness_bytes_are_pinned(tmp_path, capsys, name):
    host, alpha, edges, concept, witness = _PINNED_WITNESSES[name]
    inst, net = tmp_path / "instance.json", tmp_path / "network.json"
    inst.write_text(S.instance_to_json(L.Instance(host=host, alpha=F(alpha))))
    net.write_text(S.network_to_json(L.Network.from_pairs(host.n, edges)))
    out = tmp_path / "witness.json"
    rc = main(["check", str(inst), str(net), "--concept", concept, "--witness-out", str(out)])
    expected = json.dumps(witness, sort_keys=True, indent=2) + "\n"
    assert rc == 1
    assert out.read_bytes() == expected.encode()
    assert capsys.readouterr().out == "unstable: witness follows\n" + expected


@pytest.mark.parametrize(
    "args",
    [
        ["opt", "instance", "--node-limit", "3"],
        ["verify-fixture", "fixture", "--opt-limit", "5"],
        ["props", "--removal-trials", "5"],
    ],
    ids=lambda args: args[0],
)
def test_removed_flags_exit_three(workdir, args):
    args = [str(workdir.get(a, a)) for a in args]
    assert main(args) == 3


_FIXTURE = json.loads(S.fixture_to_json(L.gen_general_bse(4, F(2))))
_WEIGHTS_BOOL = [  # w(1, 3) is 1, so the host is valid if true reads as 1
    [True if {u, v} == {1, 3} else w for v, w in enumerate(row)]
    for u, row in enumerate(_FIXTURE["instance"]["weights"])
]
_SWEEP = {"family": "zero_cluster", "concept": "bse", "n_values": [4], "alphas": ["2"]}


@pytest.mark.parametrize(
    "command, contents",
    [
        pytest.param("verify-fixture", {}, id="fixture-empty"),
        pytest.param("check", [1, 2], id="instance-list"),
        pytest.param("check", {"edges": ["01"]}, id="edge-text"),
        pytest.param("check", {"edges": [[1.7, 2]]}, id="edge-float"),
        pytest.param("check", {"edges": [[True, 3]]}, id="edge-bool"),
        pytest.param(
            "opt", _FIXTURE["instance"] | {"n": 2, "weights": [1, 2]}, id="weights-flat"
        ),
        pytest.param(
            "check",
            _FIXTURE["instance"] | {"n": 3, "weights": ["012", "103", "230"]},
            id="weights-row-text",
        ),
        pytest.param("check", _FIXTURE["instance"] | {"alpha": True}, id="alpha-bool"),
        pytest.param(
            "check", _FIXTURE["instance"] | {"weights": _WEIGHTS_BOOL}, id="weight-bool"
        ),
        pytest.param("sweep", _SWEEP | {"alphas": [True]}, id="sweep-alpha-bool"),
        pytest.param("sweep", _SWEEP | {"n_values": ["x"]}, id="sweep-n-text"),
        pytest.param("sweep", _SWEEP | {"n_values": "34"}, id="sweep-n-string"),
        pytest.param("sweep", _SWEEP | {"n_values": [4.5]}, id="sweep-n-float"),
        pytest.param("sweep", _SWEEP | {"alphas": "12"}, id="sweep-alphas-string"),
        pytest.param("sweep", _SWEEP | {"count": 0}, id="sweep-count-zero"),
        pytest.param("sweep", _SWEEP | {"count": -3}, id="sweep-count-negative"),
        pytest.param("sweep", _SWEEP | {"count": 2.5}, id="sweep-count-float"),
        pytest.param("sweep", _SWEEP | {"seed": "7"}, id="sweep-seed-text"),
        pytest.param("sweep", _SWEEP | {"concept": "xx"}, id="sweep-concept"),
        pytest.param("sweep", _SWEEP | {"alphas": ["-1"]}, id="sweep-alpha-negative"),
        pytest.param("sweep", _SWEEP | {"opt_limit": 7}, id="sweep-removed-field"),
        pytest.param("sweep", _SWEEP | {"modle": "tree"}, id="sweep-unknown-field"),
        pytest.param("sweep", _SWEEP | {"budget": {"max_moves": "x"}}, id="sweep-budget-text"),
        pytest.param("sweep", _SWEEP | {"budget": {"max_movs": 5}}, id="sweep-budget-field"),
        pytest.param("verify-fixture", _FIXTURE | {"concept": "XX"}, id="fixture-concept"),
    ],
)
def test_malformed_file_exits_three(workdir, capsys, command, contents):
    path = workdir["dir"] / "malformed.json"
    path.write_text(json.dumps(contents))
    args = [command, str(path)]
    if command == "check" and "edges" in contents:  # a network file
        args = [command, str(workdir["instance"]), str(path), "--concept", "ps"]
    elif command == "check":
        args += [str(workdir["stable"]), "--concept", "ps"]
    assert main(args) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "zero_cluster", "--n", "4", "--alpha", "2", "--out", "missing"],
        ["opt", "instance", "--out", "dir"],
    ],
    ids=lambda args: args[0],
)
def test_unwritable_out_exits_three(workdir, capsys, args):
    paths = workdir | {"missing": workdir["dir"] / "no-such-dir" / "x.json"}
    assert main([str(paths.get(a, a)) for a in args]) == 3
    assert "input error: cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 1, None], ids=repr)
@pytest.mark.parametrize("flag", ["asymptotic_only", "requires_metric"])
def test_fixture_flags_must_be_json_booleans(tmp_path, capsys, flag, value):
    # bool("false") is True: a string flag would skip the exact-ratio check
    bundle = tmp_path / "b.json"
    assert main(["gen", "zero_cluster", "--n", "4", "--alpha", "2", "--out", str(bundle)]) == 0
    data = json.loads(bundle.read_text()) | {"expected_ratio": "7"}
    bundle.write_text(json.dumps(data))
    assert main(["verify-fixture", str(bundle)]) == 4  # FAIL cost ratio exact
    bundle.write_text(json.dumps(data | {flag: value}))
    assert main(["verify-fixture", str(bundle)]) == 3
    assert f"{flag} must be a JSON boolean" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gen, edit",
    [
        (["zero_cluster"], {"expected_ratio": "7", "asymptotic_only": True}),
        (["two_tier_star", "--variant", "ps"], {"requires_metric": False}),
        (["zero_cluster"], {"family": "nope"}),
        (["zero_cluster"], {"family": 7}),
        (["zero_cluster"], {"variant": 3}),
        (["zero_cluster"], {"variant": "ps"}),
        (["zero_cluster"], {"concept": "PS"}),
    ],
    ids=lambda x: json.dumps(x) if isinstance(x, dict) else x[0],
)
def test_bundle_cannot_restate_its_family_claims(tmp_path, capsys, gen, edit):
    # the family, not the bundle, decides which checks verify-fixture runs
    bundle = tmp_path / "b.json"
    assert main(["gen", *gen, "--n", "5", "--alpha", "4", "--out", str(bundle)]) == 0
    assert main(["verify-fixture", str(bundle)]) == 0
    bundle.write_text(json.dumps(json.loads(bundle.read_text()) | edit))
    assert main(["verify-fixture", str(bundle)]) == 3
    assert "input error" in capsys.readouterr().err


class TestOpt:
    def test_writes_proven_optimum(self, workdir, tmp_path):
        out = tmp_path / "opt.json"
        rc = main(["opt", str(workdir["instance"]), "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["proven"] is True
        assert L.parse_rational(data["cost"]) == F(10)

    def test_exact_flag_respects_node_limit(self, tmp_path):
        path = tmp_path / "eight.json"
        path.write_text(S.instance_to_json(L.random_instance(8, "tree", 0, F(2))))
        rc = main(["opt", str(path), "--exact"])
        assert rc == 3  # too large for an exact run is an input error


class TestGenAndVerify:
    def test_gen_then_verify_roundtrip(self, tmp_path, capsys):
        bundle = tmp_path / "two_tier.json"
        rc = main(
            ["gen", "two_tier_star", "--n", "5", "--alpha", "16", "--variant", "bne", "--out", str(bundle)]
        )
        assert rc == 0
        rc = main(["verify-fixture", str(bundle)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_gen_refuses_a_variant_the_family_lacks(self, capsys):
        gen = ["gen", "zero_cluster", "--n", "4", "--alpha", "2", "--variant"]
        assert main(gen + ["ps"]) == 3
        assert "zero_cluster claims no 'ps' variant" in capsys.readouterr().err
        assert main(gen + ["bse"]) == 0

    def test_gen_rejects_bad_alpha(self, tmp_path):
        rc = main(["gen", "cluster_path", "--n", "6", "--alpha", "35"])
        assert rc == 3

    @pytest.mark.parametrize(
        "family, alpha",
        [
            ("zero_cluster", "-1"),
            ("zero_cluster", "0"),
            ("zero_cluster", "abc"),
            ("two_tier_star", "0"),
        ],
    )
    def test_gen_rejects_non_positive_or_unparsable_alpha(self, family, alpha):
        assert main(["gen", family, "--n", "4", "--alpha", alpha]) == 3

    def test_gen_names_the_rational_rule_for_unparsable_alpha(self, capsys):
        # argparse used to refuse it first, naming its own converter
        assert main(["gen", "zero_cluster", "--n", "4", "--alpha", "abc"]) == 3
        out, err = capsys.readouterr()
        assert "input error: alpha must be an exact rational" in err
        assert "parse_rational" not in out + err

    @pytest.mark.parametrize(
        "family, alpha", [("zero_cluster", "-5"), ("cluster_path", "-16"), ("two_tier_star", "0")]
    )
    def test_gen_names_the_alpha_rule(self, capsys, family, alpha):
        assert main(["gen", family, "--n", "8", "--alpha", alpha]) == 3
        assert f"alpha must be positive, got {alpha}" in capsys.readouterr().err

    def test_verify_inconclusive_stability_exits_two(self, tmp_path, capsys):
        bundle = tmp_path / "b.json"
        gen = ["gen", "zero_cluster", "--n", "4", "--alpha", "2", "--out", str(bundle)]
        assert main(gen) == 0
        rc = main(["verify-fixture", str(bundle), "--max-moves", "0"])
        assert rc == 2  # every other check passed, including "stable_net connected"
        assert "FAIL stable_net is bse-stable  (inconclusive" in capsys.readouterr().out

    def test_verify_flags_corrupted_bundle(self, workdir, capsys):
        data = json.loads(workdir["fixture"].read_text())
        data["stable_net"]["edges"] = data["stable_net"]["edges"][1:]
        bad = workdir["dir"] / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["verify-fixture", str(bad)])
        assert rc == 1  # stability check failed, witness available
        assert "FAIL" in capsys.readouterr().out

    def test_verify_all_zero_host_bundle_reports_a_failure(self, workdir, capsys):
        data = json.loads(workdir["fixture"].read_text())
        zero = L.Instance(host=L.validate_host([[F(0)] * 4 for _ in range(4)]), alpha=F(2))
        data["instance"] = json.loads(S.instance_to_json(zero))
        bundle = workdir["dir"] / "zero.json"
        bundle.write_text(json.dumps(data))
        rc = main(["verify-fixture", str(bundle)])
        assert rc == 4  # the cost ratio check failed; nothing raised
        out = capsys.readouterr().out
        assert "FAIL cost ratio exact  (ratio=1 expected=3)" in out


class TestDynamics:
    def test_trace_written(self, workdir, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            [
                "dynamics",
                str(workdir["instance"]),
                "--from",
                str(workdir["broken"]),
                "--concept",
                "ps",
                "--max-steps",
                "50",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["outcome"] in ("equilibrium", "cycle", "budget-exhausted")
        assert "outcome:" in capsys.readouterr().out

    def test_unknown_policy_exits_three(self, tmp_path, capsys):
        # a tree host is metric and alpha > 1: the removed guided-first policy took both
        inst = tmp_path / "tree.json"
        inst.write_text(S.instance_to_json(L.random_instance(4, "tree", 0, F(2))))
        args = ["dynamics", str(inst), "--concept", "bse", "--policy", "guided-first"]
        assert main(args) == 3
        assert "invalid choice: 'guided-first'" in capsys.readouterr().err


class TestPoa:
    def test_reports_ratio(self, workdir, capsys):
        rc = main(["poa", str(workdir["instance"]), "--concept", "bse"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio=3" in out
        assert "complete=True" in out

    def test_zero_optimum_reports_ratio_one(self, tmp_path, capsys):
        h = L.validate_host([[F(x) for x in r] for r in [[0, 0, 1], [0, 0, 0], [1, 0, 0]]])
        path = tmp_path / "zero.json"
        path.write_text(S.instance_to_json(L.Instance(host=h, alpha=F(1))))
        assert main(["poa", str(path), "--concept", "ps"]) == 0
        assert "ratio=1 " in capsys.readouterr().out


class TestSweep:
    def test_sweep_runs_and_writes_jsonl(self, tmp_path, capsys):
        cfg = {
            "family": "zero_cluster",
            "concept": "bse",
            "n_values": [4],
            "alphas": ["1", "2"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "rows.jsonl"
        rc = main(["sweep", str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[0])
        assert row["ratio"] == "2"
        assert "zero_cluster" in capsys.readouterr().out

    def test_variant_the_family_lacks_exits_three(self, tmp_path, capsys):
        cfg = {
            "family": "zero_cluster",
            "concept": "bse",
            "n_values": [4],
            "alphas": ["2"],
            "variant": "ps",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", str(cfg_path)]) == 3
        assert "zero_cluster claims no 'ps' variant" in capsys.readouterr().err

    def test_bound_violation_exits_four_with_diagnostics(self, tmp_path, capsys, monkeypatch):
        def violated(cfg):
            raise BoundViolation("cell: ratio 7 exceeds 6", {"label": "cell", "n": 4})

        monkeypatch.setattr(harness, "poa_sweep", violated)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"family": "random", "concept": "ps", "n_values": [4], "alphas": ["2"]}'
        )
        assert main(["sweep", str(cfg_path)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["BOUND VIOLATION: cell: ratio 7 exceeds 6", '{"label": "cell", "n": 4}']

    def test_malformed_config_exits_three(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        assert main(["sweep", str(cfg_path)]) == 3


class TestProps:
    def test_small_props_run_passes(self, capsys, monkeypatch):
        trials = (60, 20, 8, 8, 5, 10)
        small = [(prop, t) for (prop, _), t in zip(properties.SUITE, trials)]
        monkeypatch.setattr(properties, "SUITE", small)
        rc = main(["props", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6


def test_readme_command_lines_parse():
    """Every command in the README's command-line block is accepted by the
    parser, so a removed or renamed flag cannot stay documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ncglab ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command rejected by the parser: {line}")


def test_readme_file_formats_load():
    """The README's sweep-config and network examples load through the
    library's loaders, so a documented format cannot drift from them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    examples = {}
    for line in section.splitlines():
        for name in ("network", "sweep config"):
            if line.startswith(f"* {name}: `"):
                examples[name] = line.split("`")[1]
    assert S.network_from_json(examples["network"], 4).edges == ((0, 1), (1, 3))
    cfg = S.sweep_config_from_json(examples["sweep config"])
    assert (cfg.family, cfg.concept, cfg.n_values) == ("random", "ps", (4, 5))
