// The DataCutter runtime: instantiates a filter group onto the simulated
// cluster, connects transparent copies with sockets, runs each copy as a
// simulated process, and implements the stream protocol:
//
//   - data buffers, end-of-work markers (one per UOW per producer copy),
//     and stream close travel in order on each point-to-point connection;
//   - a consumer's read() returns nullopt when *all* producer copies have
//     marked the current UOW done;
//   - Round-Robin or Demand-Driven distribution between consumer copies;
//     DD consumers acknowledge each buffer when they begin processing it,
//     and producers pick the copy with the fewest unacknowledged buffers
//     (Section 4.1 of the paper).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "datacutter/group.h"
#include "sockets/factory.h"

namespace sv::dc {

struct RuntimeOptions {
  net::Transport transport = net::Transport::kSocketVia;
  /// Per-buffer runtime cost at the producer (header build, scheduling).
  SimTime write_overhead = SimTime::microseconds(1);
  /// Per-buffer runtime cost at the consumer (header parse, dispatch).
  SimTime read_overhead = SimTime::microseconds(1);
  /// Wire size of end-of-work markers and DD acknowledgments.
  std::uint64_t marker_bytes = 16;
  std::uint64_t ack_bytes = 16;
  /// Demand-driven cap: a producer blocks rather than exceed this many
  /// unacknowledged buffers at every consumer (DataCutter's per-stream
  /// buffer pool). 0 = unbounded.
  std::int64_t dd_max_unacked = 4;
  /// I/O deadline for the runtime's blocking paths (stream writes, DD ack
  /// waits, acks/markers, and the filter read path). 0 = wait forever (the
  /// historical behaviour). With a nonzero deadline, a peer that stops
  /// making progress — e.g. a node stalled by a FaultPlan — surfaces as a
  /// thrown runtime error in the stuck filter process (rethrown by
  /// Simulation::run) instead of a silent hang; pair with
  /// Runtime::wait_completion_for for a Result at the application level.
  SimTime io_timeout = SimTime::zero();
};

/// Emitted when a sink filter copy completes a unit of work.
struct UowCompletion {
  std::uint64_t uow_id = 0;
  std::string filter;
  std::size_t copy = 0;
  SimTime at;
};

class Runtime {
 public:
  Runtime(sim::Simulation* sim, net::Cluster* cluster,
          sockets::SocketFactory* factory, FilterGroup group,
          RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Creates connections and spawns all filter-copy processes. Call once,
  /// before (or at) simulation start.
  void start();

  /// Enqueues a unit of work; every copy of every source filter receives
  /// it. Callable from processes or from plain code before run().
  void submit(Uow uow);
  /// Signals that no further units of work will arrive; streams drain and
  /// filters finalize.
  void close_input();

  /// Blocking wait (from a process) for the next sink-side completion;
  /// nullopt once the completion stream ends. Same as
  /// wait_completion_for(0) with kClosed mapped to nullopt.
  std::optional<UowCompletion> wait_completion();

  /// Timed wait: ErrorCode::kTimeout if no completion lands within
  /// `timeout` (<= 0 = wait forever), ErrorCode::kClosed after the
  /// completion stream ends. The clean way to bound an experiment that
  /// might be wedged on a faulty cluster.
  [[nodiscard]] Result<UowCompletion> wait_completion_for(SimTime timeout);

  /// Number of buffers each producer copy sent to each consumer copy on
  /// stream `stream_idx` (scheduling diagnostics).
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> distribution(
      std::size_t stream_idx) const;

  [[nodiscard]] const FilterGroup& group() const { return group_; }
  [[nodiscard]] const RuntimeOptions& options() const;

 private:
  class ContextImpl;
  struct CopyState;

  /// State shared between the Runtime handle and every spawned process, so
  /// the handle may be destroyed while the simulation still runs.
  struct Core;

  static void run_copy(const std::shared_ptr<CopyState>& cs);

  sim::Simulation* sim_;
  net::Cluster* cluster_;
  sockets::SocketFactory* factory_;
  FilterGroup group_;
  bool started_ = false;

  std::shared_ptr<Core> core_;
  std::vector<std::shared_ptr<CopyState>> copies_;
  // copies_ entries of source-filter copies (receive submitted UOWs).
  std::vector<std::shared_ptr<CopyState>> source_copies_;
};

}  // namespace sv::dc
