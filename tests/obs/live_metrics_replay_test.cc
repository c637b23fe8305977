// Live metric snapshots replay byte-identically (DESIGN.md §15): a seeded
// open-loop or load-balancing run with `--metrics-every`-style live
// snapshots enabled writes numbered `<metrics-out>.NNNN` registry dumps on
// a sim-time cadence. The
// snapshot cadence, the registry contents at each publish, and the JSON
// serialisation are all deterministic, so two same-seed runs must produce
// the same file set with the same bytes — the golden contract CI's
// artifact diffing relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/openloop.h"
#include "vizapp/loadbalance.h"

namespace sv::harness {
namespace {

OpenLoopConfig small_config(const std::string& metrics_path) {
  OpenLoopConfig cfg;
  cfg.transport = net::Transport::kSocketVia;
  cfg.cluster_nodes = 4;
  cfg.topology = net::TopologySpec::single_crossbar();
  cfg.seed = 13;
  cfg.clients = 1'000;
  cfg.arrivals.rate_per_sec = 800.0;
  cfg.update_bytes = 512;
  cfg.fanout = 2;
  cfg.duration = SimTime::milliseconds(40);
  cfg.obs.metrics_path = metrics_path;
  cfg.obs.metrics_every_ms = 5;
  return cfg;
}

std::string numbered(const std::string& base, std::uint64_t seq) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%04llu",
                static_cast<unsigned long long>(seq));
  return base + suffix;
}

/// Reads a whole file; empty optional-style "" + ok=false when absent.
bool read_file(const std::string& path, std::string* out) {
  std::ifstream is(path);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

/// Collects the numbered snapshot series for `base`, in sequence order.
std::vector<std::string> collect_series(const std::string& base) {
  std::vector<std::string> out;
  for (std::uint64_t seq = 0;; ++seq) {
    std::string content;
    if (!read_file(numbered(base, seq), &content)) break;
    out.push_back(std::move(content));
    std::remove(numbered(base, seq).c_str());  // keep the test re-runnable
  }
  return out;
}

TEST(LiveMetricsReplay, NumberedSnapshotsAreByteIdenticalAcrossReplays) {
  const std::string base_a = "live_metrics_replay_a.json";
  const std::string base_b = "live_metrics_replay_b.json";
  const OpenLoopResult ra = run_open_loop(small_config(base_a));
  const OpenLoopResult rb = run_open_loop(small_config(base_b));
  ASSERT_GT(ra.delivered, 0u);
  EXPECT_EQ(ra.trace_digest, rb.trace_digest)
      << "live snapshots must not perturb the schedule between replays";

  const std::vector<std::string> sa = collect_series(base_a);
  const std::vector<std::string> sb = collect_series(base_b);
  // 40 ms of traffic at a 5 ms cadence: the pump publishes while events
  // remain, so the series covers the run (at least the traffic phase) and
  // terminates with the drain instead of ticking forever.
  EXPECT_GE(sa.size(), 8u);
  EXPECT_LE(sa.size(), 64u);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]) << "snapshot " << i << " diverged";
    EXPECT_NE(sa[i].find("\"counters\""), std::string::npos);
  }
  // Later snapshots see strictly more delivered traffic than the first:
  // the series is live, not a repeated final dump.
  EXPECT_NE(sa.front(), sa.back());

  // The post-mortem file still lands, and matches across replays too.
  std::string fa;
  std::string fb;
  ASSERT_TRUE(read_file(base_a, &fa));
  ASSERT_TRUE(read_file(base_b, &fb));
  EXPECT_EQ(fa, fb);
  std::remove(base_a.c_str());
  std::remove(base_b.c_str());
}

TEST(LiveMetricsReplay, LoadBalanceRunWritesNumberedSnapshots) {
  // The load-balancing driver behind Figs 10/11 builds its own simulation
  // outside the bench harness; it must honour metrics_every_ms the same way.
  auto config = [](const std::string& metrics_path) {
    viz::LoadBalanceConfig cfg;
    cfg.total_bytes = 2 * 1024 * 1024;
    cfg.slow_worker = 1;
    cfg.slow_factor = 4;
    cfg.obs.metrics_path = metrics_path;
    cfg.obs.metrics_every_ms = 1;
    return cfg;
  };
  const std::string base_a = "live_metrics_lb_a.json";
  const std::string base_b = "live_metrics_lb_b.json";
  const viz::LoadBalanceResult ra = viz::run_load_balance(config(base_a));
  const viz::LoadBalanceResult rb = viz::run_load_balance(config(base_b));
  EXPECT_EQ(ra.trace_digest, rb.trace_digest);

  const std::vector<std::string> sa = collect_series(base_a);
  const std::vector<std::string> sb = collect_series(base_b);
  // One snapshot per simulated millisecond of the run, give or take the
  // drain at the end.
  const auto run_ms = static_cast<std::size_t>(ra.exec_time.ns() / 1'000'000);
  EXPECT_GE(sa.size() + 1, run_ms);
  EXPECT_LE(sa.size(), run_ms + 1);
  ASSERT_GE(sa.size(), 2u);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]) << "snapshot " << i << " diverged";
  }
  EXPECT_NE(sa.front(), sa.back());

  std::string fa;
  std::string fb;
  ASSERT_TRUE(read_file(base_a, &fa));
  ASSERT_TRUE(read_file(base_b, &fb));
  EXPECT_EQ(fa, fb);
  std::remove(base_a.c_str());
  std::remove(base_b.c_str());
}

TEST(LiveMetricsReplay, NoLiveSnapshotsWithoutOptIn) {
  // metrics_every_ms = 0 (the default): no pump, no numbered files.
  const std::string base = "live_metrics_off.json";
  OpenLoopConfig cfg = small_config(base);
  cfg.obs.metrics_every_ms = 0;
  const OpenLoopResult r = run_open_loop(cfg);
  ASSERT_GT(r.delivered, 0u);
  std::string content;
  EXPECT_FALSE(read_file(numbered(base, 0), &content));
  ASSERT_TRUE(read_file(base, &content));  // the final dump still writes
  std::remove(base.c_str());
}

}  // namespace
}  // namespace sv::harness
