// Observability artifact plumbing shared by the bench targets: every
// `bench/fig*` and `ablation_*` binary accepts `--trace-out=PATH` and
// `--metrics-out=PATH` and, when set, writes the Chrome trace_event JSON
// and the obs::Registry snapshot of its (final) simulation there.
//
// The tracer is passive (DESIGN.md §9): enabling it for an artifact run
// cannot change simulated results, so a bench's printed numbers are
// identical with and without these flags.
#pragma once

#include "common/cli.h"
#include "obs/artifacts.h"
#include "sim/simulation.h"

namespace sv::harness {

/// Artifact destinations parsed from a bench command line; empty paths mean
/// "don't write".
using ObsArtifacts = obs::Artifacts;

/// Registers `--trace-out` / `--metrics-out` / `--metrics-every` on a
/// bench's parser. Benches that sweep several configurations export the
/// last swept run.
void add_obs_flags(CliParser& cli, ObsArtifacts* out);

/// Turns the tracer on for `sim` when a trace artifact was requested, and
/// starts the sim-time snapshot pump when `--metrics-every` asked for live
/// mid-run snapshots (numbered `<metrics-out>.NNNN` files; byte-identical
/// across same-seed replays). Call after constructing the Simulation,
/// before traffic starts. Same as sim::Simulation::begin_artifacts.
void begin_obs(sim::Simulation& sim, const ObsArtifacts& artifacts);

/// Writes the requested artifacts from `sim`'s hub; throws std::runtime_error
/// when a destination cannot be opened.
void export_obs(sim::Simulation& sim, const ObsArtifacts& artifacts);

}  // namespace sv::harness
