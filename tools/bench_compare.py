#!/usr/bin/env python3
"""Compare a fresh bench JSON against its committed baseline.

Every committed BENCH_*.json (sim_engine, scale_sweep, regcache, slo) uses
one record format, written by bench/bench_record.h:

    {"bench": <kind>, "quick": <bool>, "records": [
      {"name": <id>, "required": <bool>,
       "exact":  {...},   model outputs, pure functions of (config, seed)
       "ratio":  {...},   host throughput (events per wall-second)
       "info":   {...},   context for the reader; never compared
       "checks": {...}}   machine-independent invariants, as booleans
    ]}

CI runs each bench with --quick and gates it here. The gate fails when

  - an exact field differs from the baseline: the executed schedule
    changed, and the baseline must be regenerated deliberately, the same
    policy as tests/integration/digest_pins.txt;
  - a ratio field falls below --min-ratio (default 0.8, i.e. a >20%
    regression) of the baseline value;
  - a check in the fresh file is false (e.g. the timing wheel fell behind
    the heap, p99 < p50, or the SLO contrast was lost);
  - a fresh record is missing from the baseline (regenerate the baseline
    with a full, non --quick run);
  - a "required" baseline record is missing from the fresh run. Records
    not marked required may be absent from a --quick subset;
  - the fresh file holds no records at all.

Usage: bench_compare.py --baseline BENCH_x.json --fresh fresh.json
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def compare(baseline, fresh, min_ratio):
    base = {r["name"]: r for r in baseline["records"]}
    got = {r["name"]: r for r in fresh["records"]}

    failures = []
    if not got:
        failures.append("fresh run contains no records")
    for name, b in sorted(base.items()):
        if b["required"] and name not in got:
            failures.append(f"{name}: missing from fresh run")

    for name, r in sorted(got.items()):
        if name not in base:
            failures.append(
                f"{name}: not in the baseline — regenerate it with a full "
                f"(non --quick) run")
            continue
        b = base[name]
        status = "ok"

        drifted = sorted(k for k in b["exact"].keys() | r["exact"].keys()
                         if b["exact"].get(k) != r["exact"].get(k))
        if drifted:
            status = "DRIFTED"
            failures.append(
                f"{name}: deterministic outputs drifted from baseline "
                f"({', '.join(drifted)}) — the executed schedule changed; "
                f"regenerate the baseline only for understood changes")

        worst = None
        for key, base_v in b["ratio"].items():
            v = r["ratio"].get(key, 0.0)
            ratio = v / base_v if base_v else 0.0
            worst = ratio if worst is None else min(worst, ratio)
            if ratio < min_ratio:
                status = "REGRESSED"
                failures.append(
                    f"{name}: {key} {v:.0f} is {ratio:.2f}x the baseline "
                    f"{base_v:.0f} (floor {min_ratio})")

        broken = sorted(k for k, ok in r["checks"].items() if ok is not True)
        if broken:
            status = "BROKEN"
            failures.append(f"{name}: check failed: {', '.join(broken)}")

        print(f"{name:28s} worst ratio {worst or 0.0:4.2f}  {status}")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json")
    ap.add_argument("--fresh", required=True,
                    help="freshly measured JSON (e.g. from --quick)")
    ap.add_argument("--min-ratio", type=float, default=0.8,
                    help="minimum fresh/baseline ratio for every ratio field")
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    kind = baseline.get("bench")
    if fresh.get("bench") != kind:
        raise SystemExit(
            f"bench kind mismatch: baseline is {kind!r}, "
            f"fresh is {fresh.get('bench')!r}")

    failures = compare(baseline, fresh, args.min_ratio)
    if failures:
        print(f"\n{kind} gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\n{kind} gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
