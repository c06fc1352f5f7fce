"""Seed 0 of every benchmark workload still gives its recorded results.

``bench/golden.json`` holds the digest of every benchmark call's checked
result, and the benchmark counts a call whose digest differs as failed.
These tests run seed 0 of ``sweep_n5``, ``enum_n6``, ``opt_n7`` and
``coalition_n8`` through ``bench/workloads.py``'s own calls and checks, so
a change that moves a report byte, or a step of ``coalition_n8``'s bne
best-response dynamics, fails the test suite too. They read ``bench/`` and write
nothing there. A change meant to move results rewrites ``golden.json``
with ``bench/make_golden.py``, and these tests follow it unedited.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in bench/
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep_n5", "enum_n6", "opt_n7", "coalition_n8"])
def test_seed_zero_matches_the_golden_digests(name, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    golden = json.loads((BENCH / "golden.json").read_text())
    calls = workloads.build(name, 0)
    assert calls and all(call.label in golden for call in calls)
    prior = {}
    for call in calls:
        result = call.run()
        prior[call.label] = result  # later checks compare with earlier results
        assert workloads.digest(call.check(result, prior)) == golden[call.label], call.label
