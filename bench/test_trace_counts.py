"""The traced mode's counts repeat exactly across fresh processes.

    python3 -m unittest bench/test_trace_counts.py

Wall times vary from run to run on a shared host; counts of calls, built
states, candidates, evaluated moves and dynamics steps must not, or they
cannot support a claim.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_NAMES = {
    "engine.cache.states_max",
    "harness.candidates",
    "stability.moves_evaluated",
    "dynamics.steps",
}


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TraceCountsRepeat(unittest.TestCase):
    def assert_counts_repeat(self, workload, seed):
        first, second = traced(workload, seed), traced(workload, seed)
        self.assertTrue(first["correct"] and second["correct"])
        names = [
            name
            for name in first["metrics"]
            if name.endswith((".calls", ".built")) or name in COUNT_NAMES
        ]
        self.assertGreater(sum(first["metrics"][name]["value"] for name in names), 0)
        for name in names:
            self.assertEqual(
                first["metrics"][name]["value"], second["metrics"][name]["value"], name
            )

    def test_sweep_n5(self):
        self.assert_counts_repeat("sweep_n5", 1)

    def test_coalition_n8(self):
        # the only workload with dynamics steps
        self.assert_counts_repeat("coalition_n8", 1)


if __name__ == "__main__":
    unittest.main()
