// Artifact destinations for a run's observability output: a Chrome
// trace_event JSON of the tracer ring and/or a JSON snapshot of the
// metrics registry. Lives in obs (not the bench harness) so mid-stack
// experiment drivers (e.g. viz::run_load_balance) can carry destinations
// in their config structs without depending on the CLI layer.
#pragma once

#include <cstdint>
#include <string>

#include "obs/hub.h"

namespace sv::obs {

struct Artifacts {
  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto);
  /// empty = don't write.
  std::string trace_path;
  /// Registry::write_json snapshot; empty = don't write.
  std::string metrics_path;
  /// Live mid-run snapshots: every this many simulated milliseconds, a
  /// numbered registry snapshot `<metrics_path>.NNNN` is written in
  /// addition to the final `metrics_path`. 0 = off (post-mortem only).
  /// Snapshot cadence is sim time, so same-seed replays write
  /// byte-identical files. Requires metrics_path.
  std::int64_t metrics_every_ms = 0;

  [[nodiscard]] bool any() const {
    return !trace_path.empty() || !metrics_path.empty();
  }
  [[nodiscard]] bool want_trace() const { return !trace_path.empty(); }
  [[nodiscard]] bool want_live_metrics() const {
    return metrics_every_ms > 0 && !metrics_path.empty();
  }
};

/// Snapshot sink that writes each publish as `<base_path>.NNNN` (NNNN =
/// zero-padded publish sequence). Content is Registry::write_json, so the
/// files are deterministic and diffable across same-seed replays.
class SnapshotFileWriter final : public SnapshotSink {
 public:
  explicit SnapshotFileWriter(std::string base_path);
  void on_snapshot(const Snapshot& snap) override;

 private:
  std::string base_path_;
};

/// Writes the requested artifacts; throws std::runtime_error when a
/// destination cannot be opened or written.
void export_artifacts(const Hub& hub, const Artifacts& artifacts);

}  // namespace sv::obs
