#include "harness/obsout.h"

namespace sv::harness {

void add_obs_flags(CliParser& cli, ObsArtifacts* out) {
  cli.add_string("trace-out", &out->trace_path,
                 "write Chrome trace_event JSON of the (last) run here");
  cli.add_string("metrics-out", &out->metrics_path,
                 "write the metrics registry snapshot (JSON) here");
  cli.add_int("metrics-every", &out->metrics_every_ms,
              "also write numbered mid-run snapshots <metrics-out>.NNNN "
              "every this many simulated ms (0 = off)");
}

void begin_obs(sim::Simulation& sim, const ObsArtifacts& artifacts) {
  sim.begin_artifacts(artifacts);
}

void export_obs(sim::Simulation& sim, const ObsArtifacts& artifacts) {
  obs::export_artifacts(sim.obs(), artifacts);
}

}  // namespace sv::harness
