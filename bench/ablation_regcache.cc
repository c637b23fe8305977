// Selective-copy policy ablation (DESIGN.md §14): message size × reuse
// locality × registration cost × cache capacity, for each copy policy.
//
// The workload is a one-way message stream over fast-fidelity SocketVIA
// with a wide flow-control window, so the sender's per-message cycle —
// exactly the policy's bill (bounce copy, pin/unpin, or cache lookup) —
// is the measured quantity. Each message draws its buffer-region id from
// a seeded generator: with probability `locality_pct` it reuses one of
// kWorkingSet hot regions, otherwise it is a fresh one-shot buffer. The
// send-loop time then exposes the classic pin-down-cache crossover:
//
//   eager_copy       wins small messages (copy is cheap, pinning is not)
//   register_on_fly  wins large one-shot transfers (pin amortizes, and a
//                    cache full of dead regions only adds eviction work)
//   regcache         wins high-locality reuse (hits skip the pin), but
//                    thrashes when capacity < working set
//
// Results go to stdout and BENCH_regcache.json (bench_record.h format, one
// record per cell). CI's mem job runs `--quick` and gates it with
// tools/bench_compare.py: deterministic fields (send-loop time, ledger
// counters, the cell's winner) exact-match, events/sec ratio-gated; the
// hit rate is context.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_record.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/units.h"
#include "mem/copy_policy.h"
#include "sockets/factory.h"

namespace sv {
namespace {

/// Hot-region pool size: sits between the two swept cache capacities so
/// the small cache thrashes on it and the large one holds it.
constexpr std::uint64_t kWorkingSet = 16;

struct PolicyResult {
  mem::CopyPolicyKind kind = mem::CopyPolicyKind::kStaticPool;
  std::uint64_t send_loop_ns = 0;
  std::uint64_t delivered = 0;
  std::uint64_t copies = 0;
  std::uint64_t copy_bytes = 0;
  std::uint64_t registrations = 0;
  std::uint64_t deregistrations = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t trace_digest = 0;
  double wall_seconds = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(events_fired) / wall_seconds
               : 0;
  }
};

struct Cell {
  std::uint64_t msg_bytes = 0;
  int locality_pct = 0;
  int reg_cost_scale_pct = 100;
  std::size_t capacity = 64;
  std::vector<PolicyResult> policies;
  mem::CopyPolicyKind winner = mem::CopyPolicyKind::kStaticPool;

  [[nodiscard]] std::string name() const {
    return "sz" + std::to_string(msg_bytes) + "_loc" +
           std::to_string(locality_pct) + "_reg" +
           std::to_string(reg_cost_scale_pct) + "_cap" +
           std::to_string(capacity);
  }
};

PolicyResult run_policy(mem::CopyPolicyKind kind, const Cell& cell,
                        int msgs) {
  PolicyResult r;
  r.kind = kind;

  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster);
  // Wide window: the transport never backpressures the sender, so the
  // send loop's simulated time is pure policy + submit cost.
  factory.set_window_override(std::uint64_t{1} << 30);
  mem::CopyPolicyConfig pcfg;
  pcfg.kind = kind;
  pcfg.reg_cost_scale_pct = cell.reg_cost_scale_pct;
  pcfg.cache.capacity_regions = cell.capacity;
  factory.set_copy_policy(pcfg);

  SimTime send_loop;
  std::uint64_t delivered = 0;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) ++delivered;
    });
    // Buffer-id sequence derives from the cell alone, so every policy
    // sees the identical access pattern and runs are bit-reproducible.
    Rng rng(cell.msg_bytes * 1000003 +
            static_cast<std::uint64_t>(cell.locality_pct));
    std::uint64_t next_oneshot = kWorkingSet + 1;
    const SimTime t0 = s.now();
    for (int i = 0; i < msgs; ++i) {
      const bool hot =
          rng.next_below(100) < static_cast<std::uint64_t>(cell.locality_pct);
      const std::uint64_t buf =
          hot ? 1 + rng.next_below(kWorkingSet) : next_oneshot++;
      a->send(net::Message{.bytes = cell.msg_bytes, .buffer = buf});
    }
    send_loop = s.now() - t0;
    a->close_send();
  });
  r.wall_seconds = bench::wall_seconds([&] { s.run(); });

  const auto& reg = s.obs().registry;
  r.send_loop_ns = static_cast<std::uint64_t>(send_loop.ns());
  r.delivered = delivered;
  r.copies = reg.counter_value("mem.copies");
  r.copy_bytes = reg.counter_value("mem.copy_bytes");
  r.registrations = reg.counter_value("mem.registrations");
  r.deregistrations = reg.counter_value("mem.deregistrations");
  r.hits = reg.counter_value("mem.regcache_hits{cache=regcache}");
  r.misses = reg.counter_value("mem.regcache_misses{cache=regcache}");
  r.evictions = reg.counter_value("mem.regcache_evictions{cache=regcache}");
  r.events_fired = s.events_fired();
  r.trace_digest = s.engine().trace_digest();
  return r;
}

bench::Record cell_record(const Cell& cell) {
  bench::Record rec(cell.name());
  rec.exact("winner", mem::copy_policy_name(cell.winner))
      .info("msg_bytes", cell.msg_bytes)
      .info("locality_pct", cell.locality_pct)
      .info("reg_cost_scale_pct", cell.reg_cost_scale_pct)
      .info("capacity", cell.capacity)
      .info("working_set", kWorkingSet);
  for (const PolicyResult& r : cell.policies) {
    const std::string p(mem::copy_policy_name(r.kind));
    rec.exact(p + ".send_loop_ns", r.send_loop_ns)
        .exact(p + ".delivered", r.delivered)
        .exact(p + ".copies", r.copies)
        .exact(p + ".copy_bytes", r.copy_bytes)
        .exact(p + ".registrations", r.registrations)
        .exact(p + ".deregistrations", r.deregistrations)
        .exact(p + ".regcache_hits", r.hits)
        .exact(p + ".regcache_misses", r.misses)
        .exact(p + ".regcache_evictions", r.evictions)
        .exact(p + ".events_fired", r.events_fired)
        .exact(p + ".trace_digest", r.trace_digest)
        .ratio(p + ".events_per_sec", r.events_per_sec())
        .info(p + ".hit_rate", r.hit_rate(), 4);
  }
  return rec;
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;

  bool quick = false;
  // Long enough that the regcache's residual pins (never unpinned during
  // the run) amortize to noise; the loc0 cells then rank by per-message
  // cost alone, which is what the crossover story needs.
  std::int64_t msgs = 1000;
  std::string json_path = "BENCH_regcache.json";
  CliParser cli(
      "Selective-copy policy ablation: message size x reuse locality x "
      "registration cost x cache capacity; emits BENCH_regcache.json.");
  cli.add_flag("quick", &quick,
               "calibrated registration cost only (CI mem job)");
  cli.add_int("msgs", &msgs, "messages per cell");
  cli.add_string("json", &json_path, "output JSON path");
  if (!cli.parse(argc, argv)) return 1;
  const int n = static_cast<int>(msgs);

  const std::vector<std::uint64_t> sizes = {512, 4096, 65536};
  const std::vector<int> localities = {0, 50, 95};
  const std::vector<int> reg_scales =
      quick ? std::vector<int>{100} : std::vector<int>{100, 400};
  const std::vector<std::size_t> capacities = {8, 64};
  const mem::CopyPolicyKind kinds[] = {mem::CopyPolicyKind::kEagerCopy,
                                       mem::CopyPolicyKind::kRegisterOnFly,
                                       mem::CopyPolicyKind::kRegCache};

  std::vector<bench::Record> records;
  for (const std::uint64_t sz : sizes) {
    for (const int loc : localities) {
      for (const int scale : reg_scales) {
        for (const std::size_t cap : capacities) {
          Cell cell;
          cell.msg_bytes = sz;
          cell.locality_pct = loc;
          cell.reg_cost_scale_pct = scale;
          cell.capacity = cap;
          for (const auto kind : kinds) {
            cell.policies.push_back(run_policy(kind, cell, n));
          }
          const PolicyResult* best = &cell.policies.front();
          for (const PolicyResult& r : cell.policies) {
            if (r.send_loop_ns < best->send_loop_ns) best = &r;
          }
          cell.winner = best->kind;
          std::printf("%-26s |", cell.name().c_str());
          for (const PolicyResult& r : cell.policies) {
            std::printf(" %s %8.1f us (hit %4.0f%%) |",
                        std::string(mem::copy_policy_name(r.kind)).c_str(),
                        static_cast<double>(r.send_loop_ns) / 1e3 /
                            static_cast<double>(n),
                        r.hit_rate() * 100.0);
          }
          std::printf(" winner %s\n",
                      std::string(mem::copy_policy_name(cell.winner)).c_str());
          records.push_back(cell_record(cell));
        }
      }
    }
  }

  bench::write_json(json_path, "regcache", quick, records);
  return 0;
}
