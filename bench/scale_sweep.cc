// Scale-out sweep: open-loop load over explicit fat-tree fabrics
// (DESIGN.md §13).
//
// Each datapoint runs harness::run_open_loop on a k-ary fat-tree at
// 16/64/256 hosts, for oversubscription ratios 1 and 4, over both the
// VIA-style and kernel-TCP transports. The workload is the deterministic
// open-loop client model: thousands of modeled clients per node submitting
// updates through the per-node SendMux, routed hop-by-hop through shared
// switch links. Reported per point:
//
//   events_per_sec   engine events per wall-second (simulator throughput)
//   p50/p99 update   enqueue-to-delivery latency percentiles (model output;
//                    host-independent, reproducible from (config, seed))
//   trace_digest     determinism evidence for the exact executed schedule
//   processes        simulated processes (fibers) spawned: a deterministic
//                    cost counter, so a fiber-count regression fails the
//                    exact gate on any host
//
// Results go to stdout and BENCH_scale_sweep.json at the repo root
// (bench_record.h format). CI's scale-smoke job runs `--quick` (the
// 64-node subset) and gates it with tools/bench_compare.py: model outputs
// exact, events/sec against the committed baseline, plus the
// machine-independent check p99 >= p50.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_record.h"
#include "common/cli.h"
#include "common/units.h"
#include "harness/openloop.h"
#include "net/calibration.h"
#include "net/topology.h"

namespace sv {
namespace {

struct SweepPoint {
  std::string topology;
  int nodes = 0;
  int oversubscription = 1;
  net::Transport transport = net::Transport::kSocketVia;
  harness::OpenLoopResult result;
  double wall_seconds = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(result.events_fired) / wall_seconds
               : 0;
  }
};

harness::OpenLoopConfig point_config(int nodes, int oversub,
                                     net::Transport tr) {
  harness::OpenLoopConfig cfg;
  cfg.transport = tr;
  cfg.cluster_nodes = nodes;
  const int k = nodes <= 16 ? 4 : (nodes <= 128 ? 8 : 12);
  cfg.topology = net::TopologySpec::fat_tree(k, oversub);
  cfg.seed = 7;
  // ~1000 modeled clients per node; 16k at the small end, 256k at the top.
  cfg.clients = static_cast<std::uint64_t>(nodes) * 1000;
  cfg.arrivals.kind = harness::ArrivalKind::kMmpp;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.05;
  cfg.hot_node = 1;
  cfg.duration = SimTime::milliseconds(20);
  return cfg;
}

SweepPoint run_point(int nodes, int oversub, net::Transport tr) {
  const harness::OpenLoopConfig cfg = point_config(nodes, oversub, tr);
  SweepPoint p;
  p.topology = "fat_tree_k" + std::to_string(cfg.topology.fat_tree_k);
  p.nodes = nodes;
  p.oversubscription = oversub;
  p.transport = tr;
  p.wall_seconds =
      bench::wall_seconds([&] { p.result = harness::run_open_loop(cfg); });
  return p;
}

bench::Record point_record(const SweepPoint& p) {
  const harness::OpenLoopResult& r = p.result;
  const double p50 = r.update_latency.percentile(50.0);
  const double p99 = r.update_latency.percentile(99.0);
  bench::Record rec(p.topology + "_x" + std::to_string(p.oversubscription) +
                    "_" + net::transport_name(p.transport));
  rec.exact("offered", r.offered)
      .exact("delivered", r.delivered)
      .exact("drops", r.drops)
      .exact("p50_update_ns", p50)
      .exact("p99_update_ns", p99)
      .exact("events_fired", r.events_fired)
      .exact("trace_digest", r.trace_digest)
      .exact("processes", r.processes)
      .ratio("events_per_sec", p.events_per_sec())
      .info("topology", p.topology)
      .info("nodes", p.nodes)
      .info("oversubscription", p.oversubscription)
      .info("transport", net::transport_name(p.transport))
      .info("wall_seconds", p.wall_seconds, 4)
      .check("p99_ge_p50", p99 >= p50);
  return rec;
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;

  bool quick = false;
  std::string json_path = "BENCH_scale_sweep.json";
  CliParser cli(
      "Open-loop scale sweep over fat-tree fabrics: 16/64/256 nodes x "
      "oversubscription x transport; emits BENCH_scale_sweep.json.");
  cli.add_flag("quick", &quick,
               "64-node subset only (CI scale-smoke)");
  cli.add_string("json", &json_path, "output JSON path");
  if (!cli.parse(argc, argv)) return 1;

  const std::vector<int> node_counts =
      quick ? std::vector<int>{64} : std::vector<int>{16, 64, 256};
  const std::vector<int> ratios = {1, 4};
  const std::vector<net::Transport> transports = {
      net::Transport::kSocketVia, net::Transport::kKernelTcp};

  std::vector<bench::Record> records;
  for (const int nodes : node_counts) {
    for (const int r : ratios) {
      for (const net::Transport tr : transports) {
        SweepPoint p = run_point(nodes, r, tr);
        std::printf(
            "%-12s x%d %-5s %4d nodes | %7llu offered %7llu delivered "
            "%5llu drops | p50 %9.0f ns p99 %9.0f ns | %9.0f ev/s\n",
            p.topology.c_str(), p.oversubscription,
            net::transport_name(p.transport), p.nodes,
            static_cast<unsigned long long>(p.result.offered),
            static_cast<unsigned long long>(p.result.delivered),
            static_cast<unsigned long long>(p.result.drops),
            p.result.update_latency.percentile(50.0),
            p.result.update_latency.percentile(99.0), p.events_per_sec());
        records.push_back(point_record(p));
      }
    }
  }

  bench::write_json(json_path, "scale_sweep", quick, records);
  return 0;
}
