"""Record golden digests of every call's checked result.

    python3 bench/make_golden.py

Runs each workload's call list once for each of the seeds 0-19, applies
the same checks as the benchmark, and rewrites ``bench/golden.json``
with the digests. Run it only on a commit whose results are known to be
right: the benchmark counts every later mismatch as a failed call.
"""

import json

from run import BENCH, import_library, run_round

SEEDS = range(20)


def main():
    import_library()
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            calls = workloads.build(name, seed)
            prior = {}
            for call, (_, result, error) in zip(calls, run_round(calls)):
                if error is not None:
                    raise SystemExit(f"{call.label}: raised {error}")
                prior[call.label] = result
                golden[call.label] = workloads.digest(call.check(result, prior))
            print(f"{name} seed {seed}: {len(calls)} calls", flush=True)
    path = BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
