"""The benchmark's tracer still finds the library hooks it wraps.

``bench/tracing.py`` replaces engine methods, ``_run_checker``,
``_Search.__init__``, ``move_deltas`` and ``brute_force_opt`` from
outside the package and reads ``CostEngine._states``. A refactor that
renames or re-signs any of them, or that evaluates optimum candidates
without ``CostEngine.social_cost``, would silently zero the traced
per-layer metrics; these tests fail instead. They also pin what the
per-call metrics assume: one enumeration builds one engine, and run
dynamics searches once per step through ``find_improving_move``.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import ncglab as L

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_an_enumeration_and_uninstalls():
    tracer = _load_tracing().Tracer()
    original = L.enumerate_stable
    inst = L.random_instance(4, "tree", 0, F(2))
    with tracer.installed(), tracer.root("enumerate_stable"):
        result = L.enumerate_stable(inst, "bse")
        # verdicts carry no deltas: an enumeration prices no witness
        assert tracer.metrics()["stability.move_deltas.calls"] == 0
        L.move_deltas(inst, L.Network.complete(inst.n), L.Move.make((0,), [(0, 1)]))
    assert L.enumerate_stable is original
    metrics = tracer.metrics()
    assert metrics["engine.dijkstra.calls"] > 0
    assert metrics["stability.check.calls"] > 0
    assert metrics["engine.cache.states_max"] > 0
    assert metrics["stability.search_setup.calls"] > 0
    assert metrics["stability.move_deltas.calls"] == 1
    assert metrics["harness.candidates"] == result.checked


def test_tracer_counts_a_worst_only_enumeration():
    # harness.candidates reads checked, which counts the whole walk in
    # worst-only mode too, not just the candidates before the worst
    tracer = _load_tracing().Tracer()
    inst = L.random_instance(5, "uniform", 0, F(2))
    with tracer.installed(), tracer.root("enumerate_stable"):
        result = L.enumerate_stable(inst, "ps", worst_only=True)
    assert tracer.metrics()["harness.candidates"] == result.checked == 728


def test_tracer_counts_the_optimum_search():
    tracer = _load_tracing().Tracer()
    original = L.brute_force_opt
    inst = L.random_instance(5, "uniform", 0, F(2))
    with tracer.installed(), tracer.root("brute_force_opt"):
        L.brute_force_opt(inst)
    assert L.brute_force_opt is original
    assert "optimum.brute_force" in {name for _, _, name, *_ in tracer.spans}
    # one evaluation seeds the bound with the spanning tree; the rest are
    # the walk's candidates, which must go through CostEngine.social_cost
    assert tracer.counts["optimum.evals"] > 1
    assert tracer.metrics()["optimum.eval_ratio"] > 0


def test_tracer_counts_the_local_search():
    # opt_n7's per-layer metrics are mostly heuristic_opt's local search,
    # which prices adds and swaps by social_after_add and drops from the
    # states it fills
    tracer = _load_tracing().Tracer()
    original = L.heuristic_opt
    inst = L.random_instance(6, "uniform", 0, F(2))
    with tracer.installed(), tracer.root("heuristic_opt"):
        L.heuristic_opt(inst)
    assert L.heuristic_opt is original
    metrics = tracer.metrics()
    assert metrics["engine.social_after_add.calls"] > 0
    assert metrics["engine.dijkstra.calls"] > 0
    assert metrics["engine.state.built"] > 0


def test_one_enumeration_registers_one_engine():
    # every candidate's checks share the call's engine; a checker that
    # built its own would register one more engine per checked candidate
    tracer = _load_tracing().Tracer()
    inst = L.random_instance(4, "uniform", 0, F(2))
    with tracer.installed():
        L.enumerate_stable(inst, "bse")
        engines = list(tracer._engines)
    assert tracer.metrics()["stability.check.calls"] > 1
    assert len(engines) == 1


def test_dynamics_spans_every_step_search():
    # k steps to equilibrium take k + 1 searches: the last proves stability
    tracer = _load_tracing().Tracer()
    inst = L.random_instance(5, "uniform", 4, F(2))
    with tracer.installed():
        trace = L.run_dynamics(inst, L.Network.complete(5), "ps", max_steps=100)
    steps = len(trace.steps)
    assert trace.outcome == "equilibrium" and steps > 1
    metrics = tracer.metrics()
    assert metrics["dynamics.find_move.calls"] == steps + 1
    assert metrics["dynamics.steps"] == steps


def test_best_response_steps_are_checker_searches():
    # both policies search through _run_checker, so the tracer sees one
    # check span per step search and counts its evaluated moves
    tracer = _load_tracing().Tracer()
    inst = L.random_instance(5, "uniform", 4, F(2))
    with tracer.installed():
        trace = L.run_dynamics(
            inst, L.Network.complete(5), "bne", "best-response", max_steps=100
        )
    assert trace.outcome == "equilibrium" and trace.steps
    searches = [sid for sid, _, name, *_ in tracer.spans if name == "dynamics.find_move"]
    checks = [(parent, name) for _, parent, name, *_ in tracer.spans if "check" in name]
    assert len(searches) == len(trace.steps) + 1
    assert sorted(checks) == [(sid, "stability.check.bne") for sid in sorted(searches)]
    assert tracer.metrics()["stability.moves_evaluated"] > 0
