#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload run.py knows, gated
in BENCHMARK.json or not, it runs run.py at --size tiny in both modes and
checks that the run is correct and emits every metric BENCHMARK.json
names, with its unit. Then it feeds one
workload a deliberately wrong reference verdict and checks that the run
reports the failure. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

RUN = [sys.executable, "perfbench/run.py", "--size", "tiny", "--seed", "3",
       "--seconds", "1"]


def result(*extra):
    done = subprocess.run(RUN + list(extra), stdout=subprocess.PIPE,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit("FAIL: %s exited %d" % (extra, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    for name in sorted(workloads.GENERATORS):
        for trace, catalogue in (("0", bench["end_to_end"]),
                                 ("1", bench["per_layer"])):
            out = result("--workload", name, "--trace", trace)
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                failures.append("%s trace %s: not correct: %s"
                                % (name, trace, out))
            want = {m["name"]: m["unit"] for m in catalogue}
            got = {n: m["unit"] for n, m in out["metrics"].items()}
            if got != want:
                failures.append("%s trace %s: metrics differ: missing %s, "
                                "extra or mis-united %s"
                                % (name, trace, sorted(set(want) - set(got)),
                                   sorted(set(got.items())
                                          - set(want.items()))))
            print("ok %s trace %s: %d metrics" % (name, trace, len(got)))

    flipped = result("--workload", "cold_build", "--trace", "0",
                     "--flip-oracle")
    if flipped["correct"] or flipped["failed"] < 1:
        failures.append("a wrong reference verdict went unnoticed: %s"
                        % flipped)
    else:
        print("ok a wrong reference verdict fails the run (%d failed)"
              % flipped["failed"])

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
