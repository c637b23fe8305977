#!/usr/bin/env python3
"""Host-performance benchmark of the simulator.

Runs one workload for a fixed time and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload openloop_fattree256 --seed 1 \
        --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 makes the separate
traced run that reports the per-layer metrics (README.md lists both).
Every measurement is one execution of the svbench binary, which this
script builds from ../src into .bench_build/perfbench. Any failed output
check prints correct=false and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SVBENCH = os.path.join(BUILD_DIR, "svbench")

WORKLOADS = ["viz_paced", "openloop_fattree256", "slo_faulted",
             "sockets_detailed"]
# Workloads whose load comes from harness::ArrivalProcess.
OPEN_LOOP = {"openloop_fattree256", "slo_faulted"}
# Each metric is a median over at least this many measurements.
MIN_REPS = 3
SVBENCH_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("peak_threads", "count")]

# Per-layer metrics: (name, unit). Registry counts come from the traced
# run's obs registry; *_ns are the layer probes.
PER_LAYER = [
    ("sim.events", "count"), ("sim.events_per_s", "1/s"),
    ("sim.processes", "count"), ("sim.ctx_switches_per_event", "ratio"),
    ("sim.sys_frac", "ratio"), ("sim.run_s", "s"), ("sim.teardown_s", "s"),
    ("sim.handoff_ns", "ns"), ("sim.schedule_fire_ns", "ns"),
    ("sim.switch_ns", "ns"), ("sim.run_ns_per_switch", "ns"),
    ("sim.wheel_cascades", "count"), ("sim.events_cancelled", "count"),
    ("net.link_frames", "count"), ("net.link_wait_ms", "sim_ms"),
    ("net.traverse_ns", "ns"), ("net.fabric_frames", "count"),
    ("net.frames_dropped", "count"), ("net.frames_retransmitted", "count"),
    ("tcpstack.segments", "count"), ("tcpstack.acks", "count"),
    ("tcpstack.retransmits", "count"), ("tcpstack.seg_ns", "ns"),
    ("via.credit_updates", "count"), ("via.msg_ns", "ns"),
    ("sockets.messages", "count"), ("sockets.send_recv_ns", "ns"),
    ("sockets.timeouts", "count"), ("sockets.mux_records_per_batch", "ratio"),
    ("sockets.mux_drops", "count"), ("sockets.mux_flushed", "count"),
    ("mem.copies", "count"), ("mem.copy_bytes", "bytes"),
    ("mem.pool_reuse_ratio", "ratio"), ("mem.regcache_hit_ratio", "ratio"),
    ("mem.payload_ns", "ns"),
    ("datacutter.buffers", "count"), ("datacutter.blocked_ms", "sim_ms"),
    ("datacutter.stall_ms", "sim_ms"), ("datacutter.buffer_ns", "ns"),
    ("control.windows", "count"), ("control.actions", "count"),
    ("control.throttled", "count"), ("control.window_ns", "ns"),
    ("obs.snapshots", "count"), ("obs.publish_ns", "ns"),
    ("harness.offered", "count"), ("harness.arrival_ns", "ns"),
    ("model.p50_us", "sim_us"), ("model.p99_us", "sim_us"),
    ("model.trace_digest", "hash"), ("model.fail_ratio", "ratio"),
    ("model.err_pct", "%"), ("vizapp.achieved_ups", "updates/s"),
] + [("est.%s_pct" % layer, "%") for layer in (
    "sim", "net", "tcpstack", "via", "sockets", "mem", "datacutter",
    "control", "obs", "harness")] + [
    ("unattributed_s", "s"), ("trace.overhead_s", "s"),
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulation.h")):
        die("simulator sources not found under %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # Two compile jobs keep the build's memory small on a shared host.
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def pinned_cpu():
    """The CPU every measuring process is confined to: the last one this
    process may run on, so every run of a checkout uses the same CPU."""
    return max(os.sched_getaffinity(0))


def svbench(*args):
    r = subprocess.run([SVBENCH, *map(str, args)], capture_output=True,
                       text=True, timeout=SVBENCH_TIMEOUT_S)
    if r.returncode != 0:
        die("svbench %s exited %d: %s" % (" ".join(map(str, args)),
                                          r.returncode, r.stderr.strip()))
    return json.loads(r.stdout.strip().splitlines()[-1])


def median(reps, key):
    return statistics.median(key(r) for r in reps)


def end_to_end(reps):
    return {
        "setup_s": median(reps, lambda r: r["setup_s"]),
        "wall_s": median(reps, lambda r: r["wall_s"]),
        "cpu_s": median(reps, lambda r: r["user_s"] + r["sys_s"]),
        "peak_rss_mb": median(reps, lambda r: r["peak_rss_mb"]),
        "peak_threads": median(reps, lambda r: r["peak_threads"]),
    }


def ratio(num, den):
    return num / den if den else 0.0


def model_outputs(r):
    return {
        "model.p50_us": r["p50_ns"] / 1e3,
        "model.p99_us": r["p99_ns"] / 1e3,
        # The top 53 bits, so the digest survives a JSON double intact.
        "model.trace_digest": r["digest"] >> 11,
        "model.fail_ratio": ratio(r["failed"] + r["shed"], r["attempted"]),
        "model.err_pct": max(r["model_err_pct"], 0.0),
        "vizapp.achieved_ups": r["achieved_ups"],
    }


def probe_costs(probes):
    """ns/op of every probe; the cost of one OS context switch and of one
    engine event; and each layer's own ns/op: the probe's cost less the
    context switches and engine events it incurred, priced at those two
    costs. The sim.handoff probe prices a switch: its ops are
    Simulation::delay round trips, each one event plus the switches
    between scheduler and process threads."""
    by_name = {p["name"]: p for p in probes}
    raw = {n: ratio(p["wall_s"] * 1e9, p["ops"]) for n, p in by_name.items()}
    fire = raw["sim.schedule_fire"]
    h = by_name["sim.handoff"]
    switch = ratio(h["wall_s"] * 1e9 - h["events"] * fire, h["ctx_switches"])
    own = {}
    for name, p in by_name.items():
        nested = p["ctx_switches"] * switch + p["events"] * fire
        own[name] = max(0.0, ratio(p["wall_s"] * 1e9 - nested, p["ops"]))
    return raw, own, switch, fire


def per_layer(workload, traced, plain, probes):
    raw, own, switch_ns, fire_ns = probe_costs(probes)
    c = {k: median(traced, lambda r, k=k: r["counts"][k])
         for k in traced[0]["counts"]}
    run_s = median(traced, lambda r: r["run_s"])
    events = c["sim.events_fired"]
    switches = median(traced, lambda r: r["run_ctx_switches"])
    sys_frac = median(traced, lambda r: ratio(r["sys_s"],
                                              r["user_s"] + r["sys_s"]))
    offered = traced[0]["attempted"]
    m = {
        "sim.events": events,
        "sim.events_per_s": ratio(events, run_s),
        "sim.processes": traced[0]["processes"],
        "sim.ctx_switches_per_event": ratio(switches, events),
        "sim.sys_frac": sys_frac,
        "sim.run_s": run_s,
        "sim.teardown_s": median(traced, lambda r: r["teardown_s"]),
        "sim.handoff_ns": raw["sim.handoff"],
        "sim.schedule_fire_ns": raw["sim.schedule_fire"],
        # One OS context switch in the two-thread probe, against run()
        # time per context switch in this workload.
        "sim.switch_ns": switch_ns,
        "sim.run_ns_per_switch": ratio(run_s * 1e9, switches),
        "sim.wheel_cascades": c["sim.wheel_cascades"],
        "sim.events_cancelled": c["sim.events_cancelled"],
        "net.link_frames": c["topo.link_frames"],
        "net.link_wait_ms": c["topo.link_wait_ns"] / 1e6,
        "net.traverse_ns": raw["net.traverse"],
        "net.fabric_frames": c["fabric.frames"],
        "net.frames_dropped": c["fault.frames_dropped"],
        "net.frames_retransmitted": c["fabric.frames_retransmitted"],
        "tcpstack.segments": c["tcpstack.segments_sent"],
        "tcpstack.acks": c["tcpstack.acks_sent"],
        "tcpstack.retransmits": c["tcpstack.segments_retransmitted"],
        "tcpstack.seg_ns": raw["tcpstack.segment"],
        "via.credit_updates": c["via_sock.credit_updates"],
        "via.msg_ns": raw["via.message"],
        "sockets.messages": c["socket.messages_sent"],
        "sockets.send_recv_ns": raw["sockets.send_recv"],
        "sockets.timeouts": c["socket.timeouts"],
        "sockets.mux_records_per_batch": ratio(c["mux.batch_records"],
                                               c["mux.batches"]),
        "sockets.mux_drops": c["mux.drops"],
        "sockets.mux_flushed": c["mux.flushed"],
        "mem.copies": c["mem.copies"],
        "mem.copy_bytes": c["mem.copy_bytes"],
        "mem.pool_reuse_ratio": ratio(c["mem.pool_reuse"], c["mem.pool_alloc"]),
        "mem.regcache_hit_ratio": ratio(
            c["mem.regcache_hits"],
            c["mem.regcache_hits"] + c["mem.regcache_misses"]),
        "mem.payload_ns": raw["mem.payload"],
        "datacutter.buffers": c["dc.buffers_out"],
        "datacutter.blocked_ms": c["dc.blocked_ns"] / 1e6,
        "datacutter.stall_ms": c["dc.stall_ns"] / 1e6,
        "datacutter.buffer_ns": raw["datacutter.buffer"],
        "control.windows": c["slo.windows"],
        "control.actions": c["slo.actions"],
        "control.throttled": c["slo.throttled"],
        "control.window_ns": raw["control.window"],
        "obs.snapshots": c["obs.snapshots"],
        "obs.publish_ns": raw["obs.publish"],
        "harness.offered": offered,
        "harness.arrival_ns": raw["harness.arrival"],
    }
    m.update(model_outputs(traced[0]))

    # Outside-in attribution of run() time: each layer's own cost per
    # operation times the operations the traced run counted.
    est = {
        "sim": switches * switch_ns + events * fire_ns,
        "net": own["net.traverse"] * c["topo.link_frames"],
        "tcpstack": own["tcpstack.segment"] * c["tcpstack.segments_sent"],
        "via": own["via.message"] * c["socket.messages_sent.svia"],
        "sockets": own["sockets.send_recv"] * c["socket.messages_sent.fast"],
        "mem": raw["mem.payload"] * c["fabric.messages_sent"],
        "datacutter": own["datacutter.buffer"] * c["dc.buffers_out"],
        "control": raw["control.window"] * c["slo.windows"],
        "obs": raw["obs.publish"] * c["obs.snapshots"],
        "harness": (raw["harness.arrival"] * offered
                    if workload in OPEN_LOOP else 0.0),
    }
    for layer, ns in est.items():
        m["est.%s_pct" % layer] = ratio(ns / 1e9, run_s) * 100.0
    m["unattributed_s"] = run_s - sum(est.values()) / 1e9
    m["trace.overhead_s"] = (median(traced, lambda r: r["wall_s"])
                             - median(plain, lambda r: r["wall_s"]))
    return m


def check(reps, reference):
    """Every rep passed its own output checks and executed the same
    schedule as the harness entry point for this config and seed."""
    problems = [v for r in reps for v in r["violations"]]
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append("trace digests differ between runs of one seed: %s"
                        % sorted(digests))
    if reference is not None and digests != {reference}:
        problems.append("benchmark-built workload digest %s != harness "
                        "digest %s" % (sorted(digests), reference))
    return problems


def repeat(seconds, minimum, measure_once):
    """Calls measure_once for `seconds`, at least `minimum` times. A call
    expected to end more than half its length past the deadline is not
    started."""
    deadline = time.monotonic() + seconds
    out, last = [], 0.0
    while len(out) < minimum or time.monotonic() + last / 2 < deadline:
        start = time.monotonic()
        out.append(measure_once())
        last = time.monotonic() - start
    return out


def measure(workload, seed, cpu, args):
    """One workload's run: prints its summary and returns its result."""
    common = ["--seed", seed, "--cpu", cpu] + (["--tiny"] if args.tiny else [])
    reference = svbench("harness", workload, *common)["digest"]
    rep_args = ["rep", workload, *common] + (
        ["--corrupt"] if args.inject_fault else [])

    if args.trace == 0:
        measured = repeat(args.seconds, MIN_REPS,
                          lambda: svbench(*rep_args))
        metrics = end_to_end(measured)
        units = dict(END_TO_END)
    else:
        probes = svbench("probes", "--cpu", cpu,
                         *(["--tiny"] if args.tiny else []))["probes"]
        pairs = repeat(args.seconds, 1, lambda: (
            svbench(*rep_args), svbench(*rep_args, "--traced")))
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        measured = plain + traced
        metrics = per_layer(workload, traced, plain, probes)
        units = dict(PER_LAYER)

    problems = check(measured, reference)
    outputs = model_outputs(measured[0])
    print("perfbench: %s seed %d on cpu %d, %d runs, trace %d"
          % (workload, seed, cpu, len(measured), args.trace))
    for name, value in metrics.items():
        print("  %-32s %18.6f %s" % (name, value, units[name]))
    print("  %-32s %18.6f ratio" % ("fail_ratio", outputs["model.fail_ratio"]))
    if workload == "sockets_detailed":
        print("  %-32s %18.6f %%" % ("model_err_pct", outputs["model.err_pct"]))
    for p in problems:
        print("CHECK FAILED: %s: %s" % (workload, p))
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed; BENCHMARK.json records the default")
    ap.add_argument("--seconds", type=float, default=25,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (the self-test)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one checked outcome; the run must fail")
    args = ap.parse_args()

    build()
    cpu = pinned_cpu()
    if args.workload != "all":
        result = measure(args.workload, args.seed, cpu, args)
    else:
        # Metric names prefixed with their workload.
        results = {w: measure(w, args.seed, cpu, args) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, n): m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
