// The per-simulation observability bundle: one Tracer + one Registry,
// owned by sim::Engine and reachable as `sim.obs()` from any layer — plus
// the live-snapshot attach point (DESIGN.md §15). Sinks attached here
// receive a Snapshot at every publish; with no sinks and no publisher the
// hub behaves exactly as it always did (post-mortem only), so detached
// runs stay bit-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace sv::obs {

struct Hub {
  Tracer tracer;
  Registry registry;

  /// Attaches a snapshot consumer (not owned; detach before it dies).
  /// Sinks are notified in attach order — part of the determinism
  /// contract, since a sink may be a controller whose actions feed back
  /// into the schedule.
  void attach(SnapshotSink* sink) { sinks_.push_back(sink); }

  /// Detaches a previously attached sink; no-op if absent.
  void detach(SnapshotSink* sink) {
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                 sinks_.end());
  }

  /// Attaches a sink the hub owns for the rest of the run (file writers
  /// the harness fire-and-forgets).
  void adopt(std::unique_ptr<SnapshotSink> sink) {
    attach(sink.get());
    owned_sinks_.push_back(std::move(sink));
  }

  [[nodiscard]] bool has_sinks() const { return !sinks_.empty(); }
  [[nodiscard]] std::uint64_t snapshots_published() const {
    return publish_seq_;
  }

  /// Publishes one snapshot of the registry to every attached sink, in
  /// attach order. Called from the sim-time pump
  /// (sim::Simulation::publish_metrics_every); a publish with no sinks
  /// still advances the sequence so numbered artifacts stay aligned with
  /// the pump schedule.
  void publish(SimTime at) {
    const Snapshot snap{at, publish_seq_++, &registry};
    for (SnapshotSink* sink : sinks_) sink->on_snapshot(snap);
  }

  /// Folds one delivered message's (sent_at, delivered_at) into the
  /// delivery digest, in delivery order. Every layer that stamps
  /// delivered_at reports here. Unlike sim::Engine::trace_digest(), which
  /// hashes every fired event, this hashes only the model's message
  /// timeline: a change in how the simulator schedules its own work leaves
  /// it alone, while any message that moves in time or order changes it
  /// (tests/integration/model_equivalence_test.cc).
  void note_delivery(SimTime sent_at, SimTime delivered_at) {
    ++deliveries_;
    for (const std::int64_t v : {sent_at.ns(), delivered_at.ns()}) {
      auto bits = static_cast<std::uint64_t>(v);
      for (int i = 0; i < 8; ++i, bits >>= 8) {
        delivery_digest_ = (delivery_digest_ ^ (bits & 0xffU)) *
                           1099511628211ULL;  // FNV-1a prime
      }
    }
  }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t delivery_digest() const {
    return delivery_digest_;
  }

 private:
  std::vector<SnapshotSink*> sinks_;
  std::vector<std::unique_ptr<SnapshotSink>> owned_sinks_;
  std::uint64_t publish_seq_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t delivery_digest_ = 14695981039346656037ULL;  // FNV-1a basis
};

}  // namespace sv::obs
