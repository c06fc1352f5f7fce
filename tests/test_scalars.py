import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ncglab as L
from ncglab.scalars import (
    INF,
    cost_ratio,
    format_rational,
    parse_rational,
    sqrt_exact,
)


def test_parse_and_format_roundtrip():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(INF) == "inf"
    assert format_rational(-INF) == "-inf"


def test_cost_ratio_is_defined_at_zero_costs():
    assert cost_ratio(Fraction(6), Fraction(4)) == Fraction(3, 2)
    assert cost_ratio(Fraction(0), Fraction(0)) == 1
    assert cost_ratio(Fraction(2), Fraction(0)) == INF
    assert cost_ratio(INF, INF) == 1


@pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1.5.2", None, 2.5])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(16)) == 4
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(Fraction(2)) is None
    assert sqrt_exact(Fraction(1, 3)) is None
    assert sqrt_exact(Fraction(0)) == 0
    assert sqrt_exact(Fraction(-4)) is None


def _two_nodes():
    return L.validate_host([[0, 1], [1, 0]])


def _sweep(**fields):
    base = {"family": "random", "concept": "ps", "n_values": (4,), "alphas": (1,)}
    return L.SweepConfig(**base | fields)


def _two_agents():
    return L.Instance(host=_two_nodes(), alpha=1)


def _dynamics(max_steps):
    return L.run_dynamics(_two_agents(), L.Network.empty(2), "ps", max_steps=max_steps)


# every entry point that takes an outside scalar, with a value it accepts
SCALAR_ENTRIES = {
    "Instance-alpha": (lambda x: L.Instance(host=_two_nodes(), alpha=x), 1),
    "HostGraph-n": (lambda x: L.HostGraph(n=x, weights=((0, 1), (1, 0))), 2),
    "HostGraph-weight": (lambda x: L.HostGraph(n=2, weights=((0, x), (x, 0))), 1),
    "Network-n": (lambda x: L.Network(n=x, edges=()), 2),
    "validate_host-weight": (lambda x: L.validate_host([[0, x], [x, 0]]), 1),
    "metric_closure-weight": (lambda x: L.metric_closure(2, [(0, 1, x)]), 1),
    "metric_closure-n": (lambda x: L.metric_closure(x, [(0, 1, 1)]), 2),
    "star_social_cost-n": (lambda x: L.star_social_cost(x, 1, 1), 3),
    "star_social_cost-alpha": (lambda x: L.star_social_cost(3, x, 1), 1),
    "star_social_cost-weight": (lambda x: L.star_social_cost(3, 1, x), 1),
    "random_instance-n": (lambda x: L.random_instance(x, "tree", 0, 1), 3),
    "random_instance-seed": (lambda x: L.random_instance(3, "tree", x, 1), 1),
    "random_instance-alpha": (lambda x: L.random_instance(3, "tree", 0, x), 1),
    "gen_general_bse-n": (lambda x: L.gen_general_bse(x, 2), 4),
    "gen_general_bse-alpha": (lambda x: L.gen_general_bse(4, x), 2),
    "gen_metric_star-n": (lambda x: L.gen_metric_star(x, 2), 4),
    "gen_metric_star-alpha": (lambda x: L.gen_metric_star(4, x), 2),
    "gen_metric_path-n": (lambda x: L.gen_metric_path(x, 16), 4),
    "gen_metric_path-alpha": (lambda x: L.gen_metric_path(4, x), 16),
    "Fixture-expected_ratio": (lambda x: replace(L.gen_general_bse(4, 2), expected_ratio=x), 3),
    "SweepConfig-alpha": (lambda x: _sweep(alphas=(x,)), 1),
    "SweepConfig-n": (lambda x: _sweep(n_values=(x,)), 4),
    "SweepConfig-count": (lambda x: _sweep(count=x), 1),
    "SweepConfig-seed": (lambda x: _sweep(seed=x), 1),
    "Budget": (lambda x: L.Budget(max_moves=x), 1),
    "run_dynamics-max_steps": (_dynamics, 1),
    "best_single_removal-agent": (
        lambda x: L.best_single_removal(_two_agents(), L.Network.complete(2), x),
        0,
    ),
    "shortest_path_tree-root": (
        lambda x: L.shortest_path_tree(L.Network.complete(2), _two_nodes(), x),
        0,
    ),
    "heuristic_opt-seed": (lambda x: L.heuristic_opt(_two_agents(), seed=x), 1),
    "social_optimum-seed": (lambda x: L.social_optimum(_two_agents(), seed=x), 1),
}

# every entry point that takes an outside sequence, with a string in its place
SEQUENCE_ENTRIES = {
    "validate_host-matrix": (L.validate_host, "12"),
    "validate_host-rows": (lambda s: L.validate_host([s, s[::-1]]), "01"),
    "metric_closure-edges": (lambda s: L.metric_closure(2, s), "12"),
    "SweepConfig-alphas": (lambda s: _sweep(alphas=s), "12"),
    "SweepConfig-n_values": (lambda s: _sweep(n_values=s), "45"),
}

OUTSIDE_CASES = [
    pytest.param(build, bad, id=f"{name}-{kind}")
    for name, (build, good) in SCALAR_ENTRIES.items()
    for kind, bad in (("float", float(good)), ("bool", True))
] + [
    pytest.param(build, text, id=f"{name}-string")
    for name, (build, text) in SEQUENCE_ENTRIES.items()
]


@pytest.mark.parametrize("name", sorted(SCALAR_ENTRIES))
def test_each_scalar_entry_takes_its_good_value(name):
    build, good = SCALAR_ENTRIES[name]
    build(good)


@pytest.mark.parametrize("build, value", OUTSIDE_CASES)
def test_outside_values_follow_one_rule(build, value):
    # a float stood for its binary value, a bool for 0 or 1, and a string
    # was iterated one character at a time
    with pytest.raises(L.LabInputError):
        build(value)


ALPHA_READERS = {
    "Instance": lambda a: L.Instance(host=_two_nodes(), alpha=a).alpha,
    "random_instance": lambda a: L.random_instance(3, "tree", 0, a).alpha,
    "gen_general_bse": lambda a: L.gen_general_bse(4, a).instance.alpha,
    "gen_metric_star": lambda a: L.gen_metric_star(4, a).instance.alpha,
    "SweepConfig": lambda a: _sweep(alphas=(a,)).alphas[0],
    "star_social_cost": lambda a: (L.star_social_cost(3, a, 1) - 4) / 2,
}


@pytest.mark.parametrize("name", sorted(ALPHA_READERS))
def test_alpha_spellings_agree(name):
    read = ALPHA_READERS[name]
    assert [read(a) for a in (Fraction(1, 2), "1/2", "0.5")] == [Fraction(1, 2)] * 3


# gen_metric_path takes only square alphas, so it has no spelling of 1/2
@pytest.mark.parametrize("name", sorted(ALPHA_READERS) + ["gen_metric_path"])
@pytest.mark.parametrize("alpha", [0, -16])
def test_alpha_readers_refuse_non_positive_alpha(name, alpha):
    read = ALPHA_READERS.get(name, lambda a: L.gen_metric_path(8, a))
    with pytest.raises(L.LabInputError, match=f"alpha must be positive, got {alpha}"):
        read(alpha)


def test_int_rule_lives_in_scalars():
    # one int test and one bool test, so no module accepts a bool or a
    # float where another refuses it
    package = Path(L.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "scalars.py":
            assert not re.search(r"\bis (not )?(int|bool)\b", path.read_text()), path.name
