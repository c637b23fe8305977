// Layer probes for the traced run: each drives one public entry point in
// isolation, after a warm-up, and reports what it cost on the host.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Host cost of `ops` calls of one entry point. For probes that run inside
/// a simulation, the figures are the difference between a long and a short
/// run of the same scenario, which cancels set-up, connection and warm-up
/// costs; `events` and `ctx_switches` are the engine events fired and the
/// OS context switches taken over the same difference, so the caller can
/// separate the layer's own cost from the engine and hand-off cost it
/// incurs.
struct Probe {
  std::string name;
  double ops = 0;
  double wall_s = 0;
  double events = 0;
  double ctx_switches = 0;
};

[[nodiscard]] std::vector<Probe> run_probes(bool tiny);

}  // namespace perfbench
