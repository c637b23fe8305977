// The software load-balancing application of Sections 5.2.3 (Figures 6,
// 10, 11): a data repository + load balancer distributing pipelining
// blocks to compute workers, some of which are (statically or
// stochastically) slower.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "datacutter/group.h"
#include "net/calibration.h"
#include "obs/artifacts.h"
#include "sim/event_queue.h"

namespace sv::viz {

struct LoadBalanceConfig {
  net::Transport transport = net::Transport::kSocketVia;
  /// Pipelining block size (paper: 16 KB for TCP, 2 KB for SocketVIA).
  std::uint64_t block_bytes = 2 * 1024;
  std::uint64_t total_bytes = 16 * 1024 * 1024;
  int workers = 3;
  dc::SchedPolicy policy = dc::SchedPolicy::kDemandDriven;
  /// Per-byte computation at each worker (paper: 18 ns/B).
  PerByteCost compute = PerByteCost::nanos_per_byte(18);
  /// Heterogeneity factor: ratio of fastest to slowest processing speed.
  int slow_factor = 1;
  /// Figure 10: index of a statically slow worker (-1 = none).
  int slow_worker = -1;
  /// Figure 11: probability that any given block is processed at the slow
  /// speed on worker `slow_worker` (dynamic slowdown).
  double slow_probability = 0.0;
  std::uint64_t seed = 1;
  /// Trace / metrics destinations for this run (passive; cannot change the
  /// measured results).
  obs::Artifacts obs;
  /// Event-queue implementation for the run's Simulation; digest-identical
  /// across kinds (see tests/integration/digest_pins_test.cc).
  sim::QueueKind queue_kind = sim::QueueKind::kTimingWheel;
};

struct LoadBalanceResult {
  /// Time until every block is fully processed.
  SimTime exec_time;
  /// Per-block service time (arrival to processing-done) on the slow
  /// worker: the load balancer's blindness window after a "mistake"
  /// (Figure 10's reaction time).
  Samples slow_service_times;
  /// Per-block service time on the fast workers, for comparison.
  Samples fast_service_times;
  /// Blocks each worker processed.
  std::vector<std::uint64_t> blocks_per_worker;
  /// Determinism evidence: events executed and the engine's FNV-1a event
  /// trace digest (same contract as harness::PacedResult; pinned by
  /// tests/integration/digest_pins_test.cc).
  std::uint64_t events_fired = 0;
  std::uint64_t trace_digest = 0;
  /// obs::Hub::delivery_digest(): the model's message timeline alone.
  std::uint64_t delivery_digest = 0;
};

/// Runs the experiment in its own simulation and returns the measurements.
[[nodiscard]] LoadBalanceResult run_load_balance(const LoadBalanceConfig& cfg);

}  // namespace sv::viz
