#!/usr/bin/env python3
"""Self-test of the bench gate, tools/bench_compare.py.

Every committed BENCH_*.json must pass against itself, and every kind of
drift the gate exists to catch must fail it: a perturbed exact field, a
ratio field at 0.79x its baseline, a false check, a fresh record the
baseline lacks, and a required record (e.g. a sim_engine mix) missing from
the fresh run. Dropping a record that is not required, as a --quick subset
does, must still pass.

Usage: bench_compare_test.py <repo root>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BASELINES = ("BENCH_sim_engine.json", "BENCH_scale_sweep.json",
             "BENCH_regcache.json", "BENCH_slo.json")


def first(records, group):
    """The first record with a non-empty `group`, and that group's first key."""
    for rec in records:
        if rec[group]:
            return rec, next(iter(rec[group]))
    return None, None


def perturb_exact(base, fresh):
    rec, key = first(fresh["records"], "exact")
    if rec is None:
        return False
    v = rec["exact"][key]
    if isinstance(v, bool):
        rec["exact"][key] = not v
    elif isinstance(v, str):
        rec["exact"][key] = v + "_drifted"
    else:
        rec["exact"][key] = v + 1
    return True


def ratio_at_079(base, fresh):
    rec, key = first(fresh["records"], "ratio")
    if rec is None:
        return False
    rec["ratio"][key] *= 0.79
    return True


def false_check(base, fresh):
    rec, key = first(fresh["records"], "checks")
    if rec is None:
        return False
    rec["checks"][key] = False
    return True


def fresh_not_in_baseline(base, fresh):
    del base["records"][0]
    return True


def required_missing(base, fresh):
    for i, rec in enumerate(fresh["records"]):
        if rec["required"]:
            del fresh["records"][i]
            return True
    return False


def optional_missing(base, fresh):
    for i, rec in enumerate(fresh["records"]):
        if not rec["required"]:
            del fresh["records"][i]
            return True
    return False


# (mutation, gate must pass?)
CASES = ((None, True),
         (perturb_exact, False),
         (ratio_at_079, False),
         (false_check, False),
         (fresh_not_in_baseline, False),
         (required_missing, False),
         (optional_missing, True))


def gate_passes(root, tmp, base, fresh):
    paths = []
    for tag, doc in (("baseline", base), ("fresh", fresh)):
        path = os.path.join(tmp, tag + ".json")
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "bench_compare.py"),
         "--baseline", paths[0], "--fresh", paths[1], "--min-ratio", "0.8"],
        capture_output=True, text=True)
    if proc.returncode != 0 and "gate FAILED" not in proc.stderr:
        raise RuntimeError(f"bench_compare.py crashed:\n{proc.stderr}")
    return proc.returncode == 0


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    errors = []
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        for name in BASELINES:
            with open(os.path.join(root, name)) as f:
                doc = json.load(f)
            for mutate, want_pass in CASES:
                base, fresh = copy.deepcopy(doc), copy.deepcopy(doc)
                label = mutate.__name__ if mutate else "self"
                if mutate and not mutate(base, fresh):
                    continue
                covered.add(label)
                got_pass = gate_passes(root, tmp, base, fresh)
                print(f"{name:24s} {label:22s} "
                      f"{'pass' if got_pass else 'fail'}")
                if got_pass != want_pass:
                    errors.append(f"{name} {label}: gate "
                                  f"{'passed' if got_pass else 'failed'}")
    # Every case must have applied to at least one baseline.
    for mutate, _ in CASES:
        label = mutate.__name__ if mutate else "self"
        if label not in covered:
            errors.append(f"{label}: no committed baseline exercises it")
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
