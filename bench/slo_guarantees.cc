// SLO guarantee evaluation: closed-loop control vs. open-loop collapse
// under faults (DESIGN.md §15).
//
// The paper's guarantee experiments (Figs 7/8) pick the datacutter chunk
// size and replica placement *offline* and show the resulting latency
// bound holds on a healthy LAN. This bench asks the harder operational
// question: what happens when the cluster degrades mid-run? Two runs of
// the identical 16-node open-loop workload under the identical fault plan
// (two nodes compute-degraded for a 50 ms window, Gilbert burst loss on
// every link):
//
//   uncontrolled   the historical behaviour — no admission control, no
//                  adaptive chunking, no replica shifting. Queued updates
//                  pile up behind the degraded replicas and deliver tens
//                  of milliseconds late: p99 blows through the SLO.
//   controlled     slo::Controller watching 5 ms latency windows. It
//                  demotes the degraded replicas (re-routing their
//                  traffic, flushing their queues and pin-down caches),
//                  throttles the sheddable bulk class, and shrinks the
//                  chunk size — holding delivered-update p99 inside the
//                  target at the cost of explicit, counted shed load.
//
// Every number except wall-clock throughput derives from (config, seed):
// offered/delivered/throttled counts, latency percentiles, the
// controller's action count, the trace digest and the number of
// simulated processes spawned are exact-match fields in BENCH_slo.json
// (bench_record.h format), gated by tools/bench_compare.py in CI
// (slo-smoke). The contrast itself travels as checks: the controlled run
// holds the target and acts at least once, the uncontrolled run misses it
// by at least 2x.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_record.h"
#include "common/cli.h"
#include "common/units.h"
#include "harness/openloop.h"
#include "net/calibration.h"
#include "net/fault.h"
#include "net/topology.h"

namespace sv {
namespace {

constexpr int kNodes = 16;
constexpr int kDegradedA = 2;  // also the incast hot node
constexpr int kDegradedB = 3;

harness::SloControlConfig slo_config() {
  harness::SloControlConfig slo;
  slo.window = SimTime::milliseconds(5);
  slo.controller.targets.p99_update_latency = SimTime::milliseconds(5);
  slo.controller.band_high_pct = 100;
  slo.controller.band_low_pct = 60;
  slo.controller.violate_windows = 2;
  slo.controller.recover_windows = 4;
  slo.controller.cooldown = SimTime::milliseconds(10);
  slo.controller.min_window_samples = 8;
  slo.controller.throttle_step_permille = 250;
  slo.controller.min_admit_permille = 250;
  slo.controller.chunk_min_bytes = 1024;
  slo.controller.chunk_max_bytes = 4096;
  slo.controller.demote_latency_pct = 150;
  slo.controller.demote_windows = 2;
  slo.controller.max_demoted = 2;
  slo.controller.demote_hold = SimTime::milliseconds(80);
  return slo;
}

harness::OpenLoopConfig base_config() {
  harness::OpenLoopConfig cfg;
  cfg.transport = net::Transport::kSocketVia;
  cfg.cluster_nodes = kNodes;
  cfg.topology = net::TopologySpec::fat_tree(4);
  cfg.seed = 11;
  cfg.clients = 16'000;
  cfg.arrivals.kind = harness::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  // A fifth of every node's updates redirect onto node 2 — which is one
  // of the nodes the fault plan stalls, so the incast hotspot and the
  // degradation coincide (the worst case replica shifting must handle).
  cfg.incast_fraction = 0.2;
  cfg.hot_node = kDegradedA;
  // Long enough that the controlled run's unavoidable tail — updates
  // already in flight toward the stalled replicas before detection —
  // stays below the 1% quantile: the SLO can be held, not magicked.
  cfg.duration = SimTime::milliseconds(600);

  // Query mix: latency-sensitive interactive queries the SLO protects,
  // plus a 3x-weight bulk update class the controller may shed.
  cfg.classes.push_back({"interactive", 1, 512, /*sheddable=*/false});
  cfg.classes.push_back({"bulk", 3, 4'096, /*sheddable=*/true});

  // Fault plan: nodes 2 and 3 fully stall across [20 ms, 80 ms) — inbound
  // frames queue behind their held resources and deliver only when the
  // window ends, tens of milliseconds late — plus bursty frame loss on
  // every link for the whole run. The uncontrolled run keeps feeding the
  // stalled replicas the entire window; the controlled run demotes them on
  // silence a couple of decision windows in.
  net::NodeFault stall_a;
  stall_a.node = kDegradedA;
  stall_a.start = SimTime::milliseconds(20);
  stall_a.duration = SimTime::milliseconds(60);
  stall_a.slow_factor = 0;
  net::NodeFault stall_b = stall_a;
  stall_b.node = kDegradedB;
  cfg.faults.nodes = {stall_a, stall_b};
  cfg.faults.all_links.loss = 0.002;
  cfg.faults.all_links.burst_continue = 0.5;
  return cfg;
}

harness::ObsArtifacts g_obs;  // --trace-out/--metrics-out/--metrics-every

struct SloRun {
  std::string name;
  bool controlled = false;
  harness::OpenLoopResult result;
  double wall_seconds = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(result.events_fired) / wall_seconds
               : 0;
  }
};

SloRun run_one(bool controlled, const harness::SloControlConfig& slo) {
  harness::OpenLoopConfig cfg = base_config();
  if (controlled) {
    cfg.slo = &slo;
    cfg.obs = g_obs;  // artifacts describe the controlled (last) run
  }
  SloRun r;
  r.name = controlled ? "controlled" : "uncontrolled";
  r.controlled = controlled;
  r.wall_seconds =
      bench::wall_seconds([&] { r.result = harness::run_open_loop(cfg); });
  return r;
}

bench::Record run_record(const SloRun& run, std::int64_t target_ns) {
  const harness::OpenLoopResult& r = run.result;
  const double p99 = r.update_latency.percentile(99.0);
  const double target = static_cast<double>(target_ns);
  bench::Record rec(run.name, /*required=*/true);
  rec.exact("controlled", run.controlled)
      .exact("offered", r.offered)
      .exact("delivered", r.delivered)
      .exact("drops", r.drops)
      .exact("throttled", r.throttled)
      .exact("p50_update_ns", r.update_latency.percentile(50.0))
      .exact("p99_update_ns", p99)
      .exact("slo_actions", r.slo_actions)
      .exact("demotions", r.slo_demotions)
      .exact("promotions", r.slo_promotions)
      .exact("final_admit_permille", r.final_admit_permille)
      .exact("final_chunk_bytes", r.final_chunk_bytes)
      .exact("events_fired", r.events_fired)
      .exact("trace_digest", r.trace_digest)
      .exact("processes", r.processes)
      .ratio("events_per_sec", run.events_per_sec())
      .info("target_p99_ns", target_ns)
      .info("wall_seconds", run.wall_seconds, 4);
  // The guarantee the bench exists to show: under the same faults the
  // controller holds the SLO, and without it the fault plan breaks it.
  if (run.controlled) {
    rec.check("slo_held", p99 <= target)
        .check("controller_acted", r.slo_actions >= 1);
  } else {
    rec.check("uncontrolled_p99_ge_2x_target", p99 >= 2 * target);
  }
  return rec;
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;

  bool quick = false;
  std::string json_path = "BENCH_slo.json";
  CliParser cli(
      "SLO guarantee under faults: the identical degraded 16-node open-loop "
      "run with and without the closed-loop controller; emits "
      "BENCH_slo.json.");
  cli.add_flag("quick", &quick,
               "accepted for CI symmetry; the scenario is already CI-sized");
  cli.add_string("json", &json_path, "output JSON path");
  harness::add_obs_flags(cli, &g_obs);
  if (!cli.parse(argc, argv)) return 1;

  const harness::SloControlConfig slo = slo_config();
  const std::int64_t target_ns = slo.controller.targets.p99_update_latency.ns();

  std::vector<SloRun> runs;
  runs.push_back(run_one(/*controlled=*/false, slo));
  runs.push_back(run_one(/*controlled=*/true, slo));

  for (const SloRun& r : runs) {
    std::printf(
        "%-12s | %7llu offered %7llu delivered %6llu drops %6llu shed | "
        "p50 %9.0f ns p99 %9.0f ns %s | %llu actions (%llu demote) | "
        "%9.0f ev/s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.result.offered),
        static_cast<unsigned long long>(r.result.delivered),
        static_cast<unsigned long long>(r.result.drops),
        static_cast<unsigned long long>(r.result.throttled),
        r.result.update_latency.percentile(50.0),
        r.result.update_latency.percentile(99.0),
        r.result.update_latency.percentile(99.0) <=
                static_cast<double>(target_ns)
            ? "HELD"
            : "VIOLATED",
        static_cast<unsigned long long>(r.result.slo_actions),
        static_cast<unsigned long long>(r.result.slo_demotions),
        r.events_per_sec());
  }

  // The controlled run's decision trail, for the human reading the bench.
  for (const SloRun& r : runs) {
    if (r.result.slo_action_log.empty()) continue;
    std::printf("%s action log (<ns> <kind> <node> <value>):\n%s",
                r.name.c_str(), r.result.slo_action_log.c_str());
    std::uint64_t late = 0;
    for (const double v : r.result.update_latency.raw()) {
      if (v > static_cast<double>(target_ns)) ++late;
    }
    std::printf("%s: %llu of %llu samples above target\n", r.name.c_str(),
                static_cast<unsigned long long>(late),
                static_cast<unsigned long long>(
                    r.result.update_latency.count()));
  }

  std::vector<bench::Record> records;
  for (const SloRun& r : runs) records.push_back(run_record(r, target_ns));
  bench::write_json(json_path, "slo", quick, records);
  return 0;
}
