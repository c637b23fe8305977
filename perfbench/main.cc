// svbench: the benchmark's measuring binary. perfbench/run.py drives it,
// one OS process per measurement, so every measurement starts from a
// fresh heap and its peak RSS is its own. Each mode prints one JSON object
// on stdout:
//
//   svbench rep <workload> --seed N --cpu C [--traced] [--tiny] [--corrupt]
//       runs the workload once, built from the simulator's public
//       constructors, and reports host phases, outcome accounting, model
//       outputs and (--traced) the per-layer registry counts.
//   svbench harness <workload> --seed N --cpu C [--tiny]
//       runs the same workload through the harness entry points that also
//       implement it and reports their folded trace digest (null when no
//       harness function covers the workload).
//   svbench probes --cpu C [--tiny]
//       runs the layer probes.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "host.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "svbench: %s\nusage: svbench rep|harness <workload> --seed N "
               "--cpu C [--traced] [--tiny] [--corrupt]\n"
               "       svbench probes --cpu C [--tiny]\n",
               msg);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_rep(const Rep& r, double wall_s, const Usage& u0, const Usage& u1) {
  std::printf(
      "{\"wall_s\": %.9f, \"setup_s\": %.9f, \"run_s\": %.9f, "
      "\"teardown_s\": %.9f, \"user_s\": %.6f, \"sys_s\": %.6f, "
      "\"peak_rss_mb\": %.3f, \"peak_threads\": %d, "
      "\"run_ctx_switches\": %llu, \"attempted\": %llu, \"failed\": %llu, "
      "\"shed\": %llu, \"digest\": %llu, \"p50_ns\": %.1f, \"p99_ns\": %.1f, "
      "\"achieved_ups\": %.6f, \"model_err_pct\": %.6f, \"processes\": %llu, "
      "\"violations\": [",
      wall_s, r.setup_s, r.run_s, r.teardown_s, u1.user_s - u0.user_s,
      u1.sys_s - u0.sys_s, peak_rss_mb(), r.peak_threads,
      static_cast<unsigned long long>(r.run_ctx_switches),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.digest),
      r.latency_ns.empty() ? 0.0 : r.latency_ns.percentile(50.0),
      r.latency_ns.empty() ? 0.0 : r.latency_ns.percentile(99.0),
      r.achieved_ups, r.model_err_pct,
      static_cast<unsigned long long>(r.processes));
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", json_string(r.violations[i]).c_str());
  }
  std::printf("], \"counts\": {");
  bool first = true;
  for (const auto& [name, v] : r.counts) {
    std::printf("%s%s: %.0f", first ? "" : ", ", json_string(name).c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  if (argc < 2) return usage_error("missing mode");
  const std::string mode = argv[1];
  std::string workload;
  int argi = 2;
  if (mode == "rep" || mode == "harness") {
    if (argc < 3) return usage_error("missing workload");
    workload = argv[2];
    argi = 3;
  } else if (mode != "probes") {
    return usage_error("unknown mode");
  }
  Options opt;
  int cpu = -1;
  for (; argi < argc; ++argi) {
    const std::string a = argv[argi];
    if (a == "--seed" && argi + 1 < argc) {
      opt.seed = std::strtoull(argv[++argi], nullptr, 10);
    } else if (a == "--cpu" && argi + 1 < argc) {
      cpu = std::atoi(argv[++argi]);
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else {
      return usage_error(("unknown argument " + a).c_str());
    }
  }
  if (cpu < 0) return usage_error("--cpu is required");
  // Pinned before any simulation thread exists, so every thread inherits it.
  if (!pin_to_cpu(cpu)) return usage_error("cannot pin to the requested CPU");

  if (mode == "probes") {
    const std::vector<Probe> probes = run_probes(opt.tiny);
    std::printf("{\"probes\": [");
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Probe& p = probes[i];
      std::printf("%s{\"name\": %s, \"ops\": %.0f, \"wall_s\": %.9f, "
                  "\"events\": %.0f, \"ctx_switches\": %.0f}",
                  i ? ", " : "", json_string(p.name).c_str(), p.ops, p.wall_s,
                  p.events, p.ctx_switches);
    }
    std::printf("]}\n");
    return 0;
  }
  if (mode == "harness") {
    std::uint64_t digest = 0;
    if (harness_digest(workload, opt, &digest)) {
      std::printf("{\"digest\": %llu}\n",
                  static_cast<unsigned long long>(digest));
    } else {
      std::printf("{\"digest\": null}\n");
    }
    return 0;
  }

  const Usage u0 = usage();
  const double t0 = now_s();
  const Rep r = run_workload(workload, opt);
  const double wall_s = now_s() - t0;
  print_rep(r, wall_s, u0, usage());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svbench: %s\n", e.what());
    return 1;
  }
}
