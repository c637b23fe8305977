// Open-loop workload generation: millions of viz clients as arrival math.
//
// The paper's harnesses are closed-loop (a fixed set of in-simulation
// clients waits for each reply before sending again). Closed loops
// self-throttle, which hides exactly the overload behavior a
// millions-of-users deployment must survive. This header models the client
// population the other way: as deterministic *arrival processes* whose
// update submissions do not wait for the system — the open-loop discipline
// the ROADMAP's scale work needs.
//
//   ArrivalProcess   pure arrival-time math: Poisson or 2-state MMPP base
//                    rate, triangular diurnal modulation, flash-crowd
//                    windows. Strictly a function of (spec, seed) — no
//                    wall clock, no global RNG — implemented by thinning
//                    against the peak-rate envelope, so every modulation
//                    compounds without approximation error in the
//                    acceptance test.
//   run_open_loop    builds a Simulation + Cluster (with an explicit
//                    net::Topology) and drives one generator process per
//                    node. Clients are bookkeeping rows on a per-node
//                    sockets::SendMux (thousands of logical connections,
//                    O(nodes) processes), with optional incast redirection
//                    onto a hot node and connection churn. Returns update
//                    latency percentiles plus the engine digest, so
//                    same-seed runs are provably bit-identical.
//
// Everything here derives from (config, seed): the statistical tests
// (tests/harness/openloop_test.cc) re-run specs across seeds and check
// measured rates against configured ones, and the replay tests pin digests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "control/slo.h"
#include "harness/obsout.h"
#include "net/calibration.h"
#include "net/fault.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sockets/mux.h"

namespace sv::harness {

enum class ArrivalKind { kPoisson, kMmpp };

[[nodiscard]] const char* arrival_kind_name(ArrivalKind k);

/// A flash crowd: the arrival rate multiplies by `multiplier` inside
/// [at, at + duration). Windows may overlap; multipliers compound.
struct FlashCrowd {
  SimTime at{};
  SimTime duration{};
  int multiplier = 4;
};

/// One node-population's aggregate arrival law.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;

  /// Mean event rate (per simulated second). For kMmpp this is the LOW
  /// state's rate.
  double rate_per_sec = 1000.0;

  /// kMmpp: high-state rate (0 = 4x rate_per_sec) and mean sojourn times.
  double mmpp_high_per_sec = 0.0;
  SimTime mmpp_sojourn_low = SimTime::milliseconds(20);
  SimTime mmpp_sojourn_high = SimTime::milliseconds(5);

  /// Diurnal modulation: a triangular wave of this period scales the rate
  /// across [1 - amplitude, 1 + amplitude] (integer-exact phase math; a
  /// sinusoid would drag libm rounding into the digest). Period 0 = off.
  SimTime diurnal_period{};
  double diurnal_amplitude = 0.0;

  std::vector<FlashCrowd> flash_crowds;

  /// The thinning envelope: an upper bound on the instantaneous rate
  /// (state max x diurnal max x all flash multipliers compounded).
  [[nodiscard]] double peak_rate_per_sec() const;
  [[nodiscard]] double high_rate_per_sec() const {
    return mmpp_high_per_sec > 0.0 ? mmpp_high_per_sec : 4.0 * rate_per_sec;
  }
};

/// Deterministic arrival-time stream. next() yields strictly increasing
/// absolute times whose local rate follows the spec's modulated law.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalSpec& spec, std::uint64_t seed);

  /// The next arrival time. Thinning: candidate gaps are exponential at
  /// the peak envelope rate; a candidate at time t survives with
  /// probability rate_at(t) / peak. Never returns the same time twice.
  [[nodiscard]] SimTime next();

  /// Instantaneous modulated rate at `t` (advances the MMPP state
  /// trajectory, so calls must use non-decreasing t).
  [[nodiscard]] double rate_at(SimTime t);

  [[nodiscard]] bool mmpp_high() const { return high_; }

 private:
  ArrivalSpec spec_;
  /// Two independent streams: `arrivals_` draws candidates + acceptance,
  /// `states_` drives the MMPP sojourn trajectory. Separate streams keep
  /// the state path independent of how many candidates were thinned.
  Rng arrivals_;
  Rng states_;
  double peak_;
  SimTime t_{};
  bool high_ = false;
  SimTime state_until_{};
};

/// One query class of the workload mix (the paper's interactive queries vs
/// bulk update traffic). Arrivals pick a class by weight; the SLO
/// controller's admission actuator throttles only the sheddable classes.
struct QueryClass {
  std::string name = "default";
  /// Relative share of arrivals (picked by integer weight, one extra RNG
  /// draw per arrival — configs without classes draw exactly as before).
  int weight = 1;
  std::uint64_t update_bytes = 1024;
  bool sheddable = true;
};

/// Closed-loop SLO control for an open-loop run (DESIGN.md §15).
struct SloControlConfig {
  control::ControllerConfig controller{};
  /// Snapshot/decision window (sim time). When `--metrics-every` already
  /// runs a pump, the controller rides that cadence instead.
  SimTime window = SimTime::milliseconds(5);
  /// Admission buckets are sized at the expected per-class offered rate
  /// times this headroom, so full admission (1000‰) never throttles.
  int admission_headroom_pct = 120;
  std::uint64_t bucket_burst = 64;
};

/// Configuration for a full open-loop scale run.
struct OpenLoopConfig {
  net::Transport transport = net::Transport::kSocketVia;
  int cluster_nodes = 64;
  /// The switch fabric. Defaults to a k=8 fat-tree (64 hosts at full
  /// fill); pass TopologySpec::single_crossbar() for the historical model.
  net::TopologySpec topology = net::TopologySpec::fat_tree(8);
  std::uint64_t seed = 1;
  sim::QueueKind queue_kind = sim::QueueKind::kTimingWheel;
  net::FaultPlan faults = net::FaultPlan::none();
  ObsArtifacts obs;

  /// Modeled viz clients, spread evenly across nodes. Each client is a
  /// logical connection row on its node's SendMux — not a process — so
  /// this scales to millions.
  std::uint64_t clients = 100'000;
  /// Aggregate arrival law of ONE node's client population.
  ArrivalSpec arrivals{};
  /// Size of one client update.
  std::uint64_t update_bytes = 1024;
  /// Each node spreads its clients across `fanout` peer destinations
  /// (client c on node n targets peer (n + 1 + c % fanout) % nodes).
  int fanout = 4;
  /// Fraction of updates redirected onto `hot_node` (incast). 0 = off.
  double incast_fraction = 0.0;
  int hot_node = 0;
  /// Mean connection close+reopen events per node per second (0 = off).
  double churn_per_sec = 0.0;
  /// Generators stop issuing arrivals after this much simulated time; the
  /// run then drains deterministically.
  SimTime duration = SimTime::milliseconds(200);
  /// Mux tuning (transport is overridden from `transport` above).
  sockets::SendMuxConfig mux{};

  /// Workload mix. Empty = one implicit class of `update_bytes`,
  /// sheddable, with zero extra RNG draws — the historical arrival stream,
  /// so every pre-existing digest pin is untouched.
  std::vector<QueryClass> classes;
  /// Install the SLO control plane (null = uncontrolled; the default, and
  /// the digest-pinned historical behavior).
  const SloControlConfig* slo = nullptr;
};

struct OpenLoopResult {
  /// Arrivals the generators produced (the offered load).
  std::uint64_t offered = 0;
  /// Updates delivered through the fabric to their destination.
  std::uint64_t delivered = 0;
  /// Updates rejected at a full mux send queue (open-loop overload).
  std::uint64_t drops = 0;
  /// Per-update enqueue-to-delivery latency (ns).
  Samples update_latency;
  /// Determinism evidence (same contract as PacedResult).
  std::uint64_t events_fired = 0;
  std::uint64_t trace_digest = 0;
  SimTime end_time{};
  /// obs::Hub::delivery_digest(): the model's message timeline alone.
  std::uint64_t delivery_digest = 0;
  /// sim::Simulation::processes_spawned() at the end of the run.
  std::uint64_t processes = 0;

  // --- populated only when cfg.slo was installed ---
  /// Arrivals rejected by admission control (shed, never submitted).
  std::uint64_t throttled = 0;
  /// Controller decisions, in order (`<ns> <kind> <node> <value>` lines);
  /// byte-compare this to prove two runs made identical decisions.
  std::string slo_action_log;
  std::uint64_t slo_actions = 0;
  std::uint64_t slo_demotions = 0;
  std::uint64_t slo_promotions = 0;
  std::uint32_t final_admit_permille = 1000;
  std::uint64_t final_chunk_bytes = 0;
  std::int64_t final_cluster_p99_ns = 0;
};

[[nodiscard]] OpenLoopResult run_open_loop(const OpenLoopConfig& cfg);

}  // namespace sv::harness
