#include "obs/artifacts.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace sv::obs {
namespace {

void write_file(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& emit) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("obs: cannot open " + what + " destination '" +
                             path + "'");
  }
  emit(os);
  if (!os) {
    throw std::runtime_error("obs: failed writing " + what + " to '" + path +
                             "'");
  }
}

}  // namespace

SnapshotFileWriter::SnapshotFileWriter(std::string base_path)
    : base_path_(std::move(base_path)) {}

void SnapshotFileWriter::on_snapshot(const Snapshot& snap) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%04llu",
                static_cast<unsigned long long>(snap.seq));
  write_file(base_path_ + suffix, "metrics snapshot", [&](std::ostream& os) {
    snap.registry->write_json(os);
  });
}

void export_artifacts(const Hub& hub, const Artifacts& artifacts) {
  if (!artifacts.trace_path.empty()) {
    write_file(artifacts.trace_path, "trace", [&](std::ostream& os) {
      hub.tracer.write_chrome_json(os);
    });
  }
  if (!artifacts.metrics_path.empty()) {
    write_file(artifacts.metrics_path, "metrics", [&](std::ostream& os) {
      hub.registry.write_json(os);
    });
  }
}

}  // namespace sv::obs
