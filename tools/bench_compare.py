#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Dispatches on the file's "bench" field:

sim_engine — CI's bench-smoke job runs `sim_engine --quick` and feeds the
result here. The gate fails when any mix's timing-wheel events/sec falls
below `--min-ratio` (default 0.8, i.e. a >20% regression) of the committed
baseline for that mix; the app_pingpong mix holds the process hand-off
cost to the same gate. Because absolute rates depend on the host, the gate
also checks a machine-independent invariant: the wheel must not fall behind
the reference heap run in the *same* fresh measurement on the mixes the
design promises to win (bursty, cancel_heavy, open_loop).

scale_sweep — CI's scale-smoke job runs `scale_sweep --quick` (the 64-node
subset). Model outputs (offered/delivered/drops, p50/p99 update latency,
trace digest) are pure functions of (config, seed), so for every point
present in both files they must match the baseline EXACTLY — a drift means
the executed schedule changed and the baseline must be deliberately
regenerated, same policy as tests/integration/digest_pins.txt. Host
throughput (events/sec) is gated by `--min-ratio` like sim_engine, plus the
machine-independent invariant p99 >= p50.

regcache — CI's mem job runs `ablation_regcache --quick` (the calibrated
registration-cost subset). Per-policy simulated send-loop time, ledger
counters (copies, registrations, regcache hits/misses/evictions), the
trace digest, and each cell's winning policy are pure functions of
(config, seed), so for every cell present in both files they must match
EXACTLY. The fresh run must also preserve the crossover: each policy
still wins at least one cell it won in the baseline's quick subset.
Hit-rate is exact-derived (from hits/misses) while host events/sec is
gated by `--min-ratio`.

slo — CI's slo-smoke job runs `slo_guarantees --quick` (the controlled vs
uncontrolled 16-node degraded run). Model outputs (offered/delivered/
drops/throttled counts, latency percentiles, the controller's action and
demotion counts, final actuator settings, trace digest) are pure functions
of (config, seed): for each run present in both files they must match the
baseline EXACTLY. The gate also enforces the machine-independent SLO
contrast itself: the controlled run holds p99 at or under the target
("held": true) while the uncontrolled run violates it by at least 2x —
the bench's reason to exist. Host events/sec is gated by `--min-ratio`.

Usage: bench_compare.py --baseline BENCH_x.json --fresh fresh.json
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def compare_sim_engine(baseline, fresh, min_ratio):
    base_mixes = {m["name"]: m for m in baseline["mixes"]}
    fresh_mixes = {m["name"]: m for m in fresh["mixes"]}

    failures = []
    for name, base in sorted(base_mixes.items()):
        if name not in fresh_mixes:
            failures.append(f"{name}: missing from fresh run")
            continue
        base_rate = base["timing_wheel"]["events_per_sec"]
        fresh_rate = fresh_mixes[name]["timing_wheel"]["events_per_sec"]
        ratio = fresh_rate / base_rate if base_rate else 0.0
        status = "ok" if ratio >= min_ratio else "REGRESSED"
        print(f"{name:13s} wheel {fresh_rate:12.0f} ev/s vs baseline "
              f"{base_rate:12.0f} ev/s  ratio {ratio:4.2f}  {status}")
        if ratio < min_ratio:
            failures.append(
                f"{name}: wheel {fresh_rate:.0f} ev/s is {ratio:.2f}x the "
                f"baseline {base_rate:.0f} ev/s (floor {min_ratio})")

    # Machine-independent sanity: within the fresh run itself, the wheel
    # must still beat the heap on the mixes the redesign targets.
    for name in ("bursty", "cancel_heavy", "open_loop"):
        if name not in fresh_mixes:
            continue
        speedup = fresh_mixes[name]["speedup_events_per_sec"]
        status = "ok" if speedup >= 1.0 else "REGRESSED"
        print(f"{name:13s} wheel/heap speedup {speedup:4.2f}  {status}")
        if speedup < 1.0:
            failures.append(
                f"{name}: timing wheel slower than reference heap "
                f"({speedup:.2f}x)")
    return failures


# Deterministic model outputs: exact match required between a fresh point
# and its committed twin. events_per_sec / wall_seconds are host-dependent
# and deliberately excluded.
EXACT_POINT_KEYS = ("offered", "delivered", "drops", "p50_update_ns",
                    "p99_update_ns", "events_fired", "trace_digest")


def compare_scale_sweep(baseline, fresh, min_ratio):
    base_points = {p["name"]: p for p in baseline["points"]}
    fresh_points = {p["name"]: p for p in fresh["points"]}

    failures = []
    for name, got in sorted(fresh_points.items()):
        if name not in base_points:
            failures.append(
                f"{name}: not in the baseline — regenerate "
                f"BENCH_scale_sweep.json with a full (non --quick) run")
            continue
        base = base_points[name]

        drifted = [k for k in EXACT_POINT_KEYS if base[k] != got[k]]
        base_rate = base["events_per_sec"]
        fresh_rate = got["events_per_sec"]
        ratio = fresh_rate / base_rate if base_rate else 0.0
        tail_ok = got["p99_update_ns"] >= got["p50_update_ns"]

        status = "ok"
        if drifted:
            status = "DRIFTED"
            failures.append(
                f"{name}: deterministic outputs drifted from baseline "
                f"({', '.join(drifted)}) — the executed schedule changed; "
                f"regenerate the baseline only for understood changes")
        if ratio < min_ratio:
            status = "REGRESSED"
            failures.append(
                f"{name}: {fresh_rate:.0f} ev/s is {ratio:.2f}x the "
                f"baseline {base_rate:.0f} ev/s (floor {min_ratio})")
        if not tail_ok:
            status = "BROKEN"
            failures.append(
                f"{name}: p99 {got['p99_update_ns']:.0f} ns below p50 "
                f"{got['p50_update_ns']:.0f} ns")
        print(f"{name:28s} {fresh_rate:9.0f} ev/s  ratio {ratio:4.2f}  "
              f"p50 {got['p50_update_ns']:9.0f} ns  "
              f"p99 {got['p99_update_ns']:9.0f} ns  {status}")
    if not fresh_points:
        failures.append("fresh run contains no points")
    return failures


# Deterministic per-policy outputs inside a regcache cell: exact match
# required. wall-clock fields (events_per_sec) are host-dependent and
# ratio-gated instead.
EXACT_POLICY_KEYS = ("send_loop_ns", "delivered", "copies", "copy_bytes",
                     "registrations", "deregistrations", "regcache_hits",
                     "regcache_misses", "regcache_evictions", "events_fired",
                     "trace_digest")


def compare_regcache(baseline, fresh, min_ratio):
    base_cells = {c["name"]: c for c in baseline["cells"]}
    fresh_cells = {c["name"]: c for c in fresh["cells"]}

    failures = []
    for name, got in sorted(fresh_cells.items()):
        if name not in base_cells:
            failures.append(
                f"{name}: not in the baseline — regenerate "
                f"BENCH_regcache.json with a full (non --quick) run")
            continue
        base = base_cells[name]
        base_pols = {p["policy"]: p for p in base["policies"]}

        status = "ok"
        if got["winner"] != base["winner"]:
            status = "DRIFTED"
            failures.append(
                f"{name}: winner changed {base['winner']} -> "
                f"{got['winner']} — the policy crossover moved")
        worst_ratio = None
        for pol in got["policies"]:
            pname = pol["policy"]
            if pname not in base_pols:
                failures.append(f"{name}/{pname}: missing from baseline")
                continue
            bpol = base_pols[pname]
            drifted = [k for k in EXACT_POLICY_KEYS if bpol[k] != pol[k]]
            if drifted:
                status = "DRIFTED"
                failures.append(
                    f"{name}/{pname}: deterministic outputs drifted "
                    f"({', '.join(drifted)}) — the policy bill changed; "
                    f"regenerate the baseline only for understood changes")
            base_rate = bpol["events_per_sec"]
            ratio = pol["events_per_sec"] / base_rate if base_rate else 0.0
            if worst_ratio is None or ratio < worst_ratio:
                worst_ratio = ratio
            if ratio < min_ratio:
                status = "REGRESSED"
                failures.append(
                    f"{name}/{pname}: {pol['events_per_sec']:.0f} ev/s is "
                    f"{ratio:.2f}x the baseline "
                    f"{base_rate:.0f} ev/s (floor {min_ratio})")
        print(f"{name:26s} winner {got['winner']:15s} "
              f"worst ev/s ratio {worst_ratio or 0.0:4.2f}  {status}")

    if not fresh_cells:
        failures.append("fresh run contains no cells")
    else:
        # Machine-independent crossover invariant: on the cells both runs
        # cover, every policy that won somewhere in the baseline subset
        # must still win somewhere in the fresh run.
        shared = [n for n in fresh_cells if n in base_cells]
        base_winners = {base_cells[n]["winner"] for n in shared}
        fresh_winners = {fresh_cells[n]["winner"] for n in shared}
        for policy in sorted(base_winners - fresh_winners):
            failures.append(
                f"crossover lost: {policy} wins a baseline cell but no "
                f"fresh cell")
        print(f"crossover winners: {', '.join(sorted(fresh_winners))}")
    return failures


# Deterministic per-run outputs of the SLO guarantee bench: exact match
# required. wall-clock fields are host-dependent and ratio-gated.
EXACT_SLO_KEYS = ("controlled", "offered", "delivered", "drops", "throttled",
                  "p50_update_ns", "p99_update_ns", "slo_actions",
                  "demotions", "promotions", "final_admit_permille",
                  "final_chunk_bytes", "events_fired", "trace_digest")


def compare_slo(baseline, fresh, min_ratio):
    base_runs = {r["name"]: r for r in baseline["runs"]}
    fresh_runs = {r["name"]: r for r in fresh["runs"]}

    failures = []
    for name, got in sorted(fresh_runs.items()):
        if name not in base_runs:
            failures.append(
                f"{name}: not in the baseline — regenerate BENCH_slo.json")
            continue
        base = base_runs[name]
        drifted = [k for k in EXACT_SLO_KEYS if base[k] != got[k]]
        base_rate = base["events_per_sec"]
        ratio = got["events_per_sec"] / base_rate if base_rate else 0.0
        status = "ok"
        if drifted:
            status = "DRIFTED"
            failures.append(
                f"{name}: deterministic outputs drifted from baseline "
                f"({', '.join(drifted)}) — the controller made different "
                f"decisions or the schedule changed; regenerate the "
                f"baseline only for understood changes")
        if ratio < min_ratio:
            status = "REGRESSED"
            failures.append(
                f"{name}: {got['events_per_sec']:.0f} ev/s is {ratio:.2f}x "
                f"the baseline {base_rate:.0f} ev/s (floor {min_ratio})")
        print(f"{name:13s} p99 {got['p99_update_ns']:10.0f} ns  "
              f"{got['slo_actions']:3.0f} actions  "
              f"shed {got['throttled']:6.0f}  ratio {ratio:4.2f}  {status}")

    for name in ("controlled", "uncontrolled"):
        if name not in fresh_runs:
            failures.append(f"fresh run is missing the {name} arm")
    if failures and any("missing the" in f for f in failures):
        return failures

    # The machine-independent guarantee the bench exists to demonstrate:
    # under the same faults, the controlled run holds the SLO and the
    # uncontrolled run violates it by at least 2x.
    target = fresh["target_p99_ns"]
    controlled_p99 = fresh_runs["controlled"]["p99_update_ns"]
    uncontrolled_p99 = fresh_runs["uncontrolled"]["p99_update_ns"]
    if not fresh.get("held") or controlled_p99 > target:
        failures.append(
            f"SLO not held: controlled p99 {controlled_p99:.0f} ns vs "
            f"target {target} ns")
    if uncontrolled_p99 < 2 * target:
        failures.append(
            f"contrast lost: uncontrolled p99 {uncontrolled_p99:.0f} ns is "
            f"under 2x the {target} ns target — the fault plan no longer "
            f"stresses the system")
    if fresh_runs["controlled"]["slo_actions"] < 1:
        failures.append("controlled run recorded no controller actions")
    print(f"held: controlled p99 {controlled_p99:.0f} ns <= target {target} "
          f"ns; uncontrolled {uncontrolled_p99 / target:.1f}x target")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json")
    ap.add_argument("--fresh", required=True,
                    help="freshly measured JSON (e.g. from --quick)")
    ap.add_argument("--min-ratio", type=float, default=0.8,
                    help="minimum fresh/baseline events-per-sec ratio")
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    kind = baseline.get("bench")
    if fresh.get("bench") != kind:
        raise SystemExit(
            f"bench kind mismatch: baseline is {kind!r}, "
            f"fresh is {fresh.get('bench')!r}")
    if kind == "sim_engine":
        failures = compare_sim_engine(baseline, fresh, args.min_ratio)
    elif kind == "scale_sweep":
        failures = compare_scale_sweep(baseline, fresh, args.min_ratio)
    elif kind == "regcache":
        failures = compare_regcache(baseline, fresh, args.min_ratio)
    elif kind == "slo":
        failures = compare_slo(baseline, fresh, args.min_ratio)
    else:
        raise SystemExit(f"{args.baseline}: unknown bench kind {kind!r}")

    if failures:
        print(f"\n{kind} gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\n{kind} gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
