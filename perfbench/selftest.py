#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at its tiny size.

    python3 perfbench/selftest.py

For each workload it asserts that the untraced run prints exactly the
end_to_end metrics of BENCHMARK.json and the traced run exactly its
per_layer metrics, each with its declared unit, with every output check
passing; and that a run whose outcome the benchmark deliberately corrupts
(--inject-fault) reports correct=false and exits non-zero. Exits 0 when
every assertion holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--tiny", *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in declared.items():
            code, out = run(workload, "--trace", trace)
            what = "%s --trace %s" % (workload, trace)
            if code != 0 or out is None or out["correct"] is not True:
                failures.append("%s: exit %d, result %s" % (what, code, out))
                continue
            printed = {n: m["unit"] for n, m in out["metrics"].items()}
            if printed != metrics:
                failures.append("%s: metrics %s, declared %s"
                                % (what, printed, metrics))
            if out["attempted"] < 1:
                failures.append("%s: attempted %d" % (what, out["attempted"]))
        code, out = run(workload, "--trace", "0", "--inject-fault")
        if code == 0 or out is None or out["correct"] is not False:
            failures.append("%s --inject-fault: exit %d, result %s"
                            % (workload, code, out))
        print("selftest: %s done" % workload, flush=True)
    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s" % ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
