// Shared measurement harnesses for the paper's application experiments
// (Figures 7, 8, 9). Each function builds a fresh simulation, runs the
// visualization pipeline under the prescribed workload, and returns the
// measurements the paper plots.
//
// Methodology notes (mirroring Section 5.2.2):
//  - Complete-update traffic and partial-update probes run as *separate
//    filter-group instances* over the same nodes (DataCutter's concurrency
//    model for multiple queries), so probes contend for NIC and protocol
//    resources with the update stream — the source of the latency blow-up
//    near capacity.
//  - Complete updates are submitted open-loop at the target rate; the
//    achieved rate is computed from completion timestamps, so an
//    infeasible target shows up as achieved < target.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "datacutter/group.h"
#include "harness/obsout.h"
#include "mem/copy_policy.h"
#include "net/calibration.h"
#include "net/fault.h"
#include "sim/event_queue.h"
#include "vizapp/query.h"

namespace sv::harness {

struct VizWorkloadConfig {
  net::Transport transport = net::Transport::kSocketVia;
  std::uint64_t image_bytes = 16 * 1024 * 1024;
  std::uint64_t block_bytes = 64 * 1024;
  /// 18 ns/B for the "linear computation" panels; zero otherwise.
  PerByteCost compute = PerByteCost::zero();
  int cluster_nodes = 16;
  std::uint64_t seed = 1;
  /// Fault injection (frame loss, jitter, node stalls), installed on the
  /// cluster before the apps start. Defaults to no faults; every fault
  /// decision derives from `seed`, so (config, seed) still pins the
  /// trace digest bit-for-bit.
  net::FaultPlan faults = net::FaultPlan::none();
  /// Trace / metrics artifact destinations for this run (tracing is
  /// passive, so setting these cannot change the measured results).
  ObsArtifacts obs;
  /// Event-queue implementation for the run's Simulation (DESIGN.md §12).
  /// Both kinds are digest-identical (tests/integration/digest_pins_test.cc
  /// proves it per release); the knob exists for that proof and for
  /// differential benchmarking.
  sim::QueueKind queue_kind = sim::QueueKind::kTimingWheel;
  /// Selective-copy policy for the run's zero-copy sockets (DESIGN.md §14).
  /// kStaticPool (default) keeps the legacy path and every digest pin.
  mem::CopyPolicyConfig copy_policy{};
};

/// Figure 7 point: run complete updates at `target_ups` while probing with
/// partial-update queries; report achieved rate and mean partial latency.
struct PacedResult {
  double target_ups = 0;
  double achieved_ups = 0;
  Samples partial_latencies;
  /// True when the pipeline kept up with the submission rate (within 5%).
  bool met_target = false;
  /// Determinism evidence: total events executed and the engine's FNV-1a
  /// event-trace digest. Two runs with identical config + seed must match
  /// on all three of (events_fired, trace_digest, end_time) bit-for-bit
  /// (tests/integration/determinism_replay_test.cc).
  std::uint64_t events_fired = 0;
  std::uint64_t trace_digest = 0;
  SimTime end_time;
  /// obs::Hub::delivery_digest(): the model's message timeline alone.
  std::uint64_t delivery_digest = 0;
};
[[nodiscard]] PacedResult run_paced_updates(const VizWorkloadConfig& cfg,
                                            double target_ups,
                                            int updates = 8,
                                            int warmup = 2);

/// Figure 8 point: maximum sustainable complete-update rate (closed loop
/// with `pipeline_depth` queries outstanding), plus the uncontended partial
/// latency at this block size (the guarantee actually delivered).
struct SaturationResult {
  double updates_per_sec = 0;
  SimTime uncontended_partial_latency;
};
[[nodiscard]] SaturationResult run_saturation(const VizWorkloadConfig& cfg,
                                              int updates = 8, int warmup = 2,
                                              int pipeline_depth = 2);

/// Figure 9 point: closed-loop mix of zoom (4 chunks) and complete-update
/// queries; `complete_fraction` of the queries are complete updates.
/// Returns per-query response times.
[[nodiscard]] Samples run_query_mix(const VizWorkloadConfig& cfg,
                                    double complete_fraction,
                                    int queries = 30);

/// One-shot: latency of a single partial update on an otherwise idle
/// pipeline (the uncontended guarantee).
[[nodiscard]] SimTime measure_idle_partial_latency(
    const VizWorkloadConfig& cfg);

}  // namespace sv::harness
