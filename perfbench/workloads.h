// The benchmark's four workloads, each built from the simulator's public
// constructors so the benchmark owns every sim::Simulation and can time
// its phases from outside: set-up (until Simulation::run() is entered),
// run(), and teardown (~Simulation and everything built around it).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  /// Shrinks every workload to a smoke-test size (the self-test).
  bool tiny = false;
  /// Reads the per-layer counters after each run (the traced run).
  bool traced = false;
  /// Deliberately corrupts one outcome the checks read, so the self-test
  /// can prove that a failed check fails the command.
  bool corrupt = false;
};

/// One execution of a workload: host phases summed over the workload's
/// simulations, outcome accounting, model outputs, and (traced only) the
/// registry counters of every simulation, summed.
struct Rep {
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  std::uint64_t run_ctx_switches = 0;
  int peak_threads = 0;

  /// Operations the workload offered (updates, queries or messages).
  std::uint64_t attempted = 0;
  /// Operations the system failed to carry out: lost, dropped at a full
  /// queue, not completed, not delivered byte-exact, timed out.
  std::uint64_t failed = 0;
  /// Operations refused or discarded on purpose by the SLO controller
  /// (throttled at admission, flushed from a demoted replica's lanes).
  std::uint64_t shed = 0;
  /// Human-readable descriptions of every failed output check.
  std::vector<std::string> violations;

  /// FNV-1a fold of every simulation's engine trace digest, in run order.
  std::uint64_t digest = 14695981039346656037ULL;
  /// The workload's latency samples, simulated ns.
  sv::Samples latency_ns;
  /// viz_paced: the lower of the two halves' achieved update rates.
  double achieved_ups = 0;
  /// sockets_detailed: mean absolute error (%) against the Fig 4 anchors.
  double model_err_pct = -1;

  /// Traced only: processes spawned, and registry counts by family.
  std::uint64_t processes = 0;
  std::map<std::string, double> counts;
};

/// Runs workload `name` once. Throws std::invalid_argument for an unknown
/// name.
[[nodiscard]] Rep run_workload(const std::string& name, const Options& opt);

/// The folded trace digest of the same workload run through the harness
/// entry points that also implement it (harness::run_paced_updates,
/// harness::run_open_loop); false when no harness function covers it.
[[nodiscard]] bool harness_digest(const std::string& name, const Options& opt,
                                  std::uint64_t* digest);

/// Folds one simulation's digest into a workload digest.
[[nodiscard]] std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t d);

}  // namespace perfbench
