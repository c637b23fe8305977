// Simulation: the facade tying the event engine to simulated processes.
//
// Usage:
//   sim::Simulation s;
//   s.spawn("producer", [&] { s.delay(5_us); ch.send(42); });
//   s.spawn("consumer", [&] { int v = ch.recv(); });
//   s.run();
//
// Only one process runs at a time; all simulation state is single-threaded.
// Spawning, scheduling and waking are legal both from processes and from
// plain event handlers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/artifacts.h"
#include "sim/engine.h"
#include "sim/process.h"

namespace sv::sim {

class Simulation {
 public:
  /// `queue_kind` selects the engine's event-queue implementation
  /// (DESIGN.md §12); the default timing wheel is bit-identical to the
  /// reference heap, so this only matters for differential tests/benches.
  explicit Simulation(QueueKind queue_kind = QueueKind::kTimingWheel);
  /// Destroys the simulation; any still-blocked processes are unwound via
  /// ProcessKilled, so every frame on their stacks is destroyed before the
  /// stacks are released.
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Creates a process that starts at the current simulated time. Accepts
  /// move-only callables (wrapped internally; std::function requires
  /// copyability).
  template <typename F>
  Process& spawn(std::string name, F&& body) {
    if constexpr (std::is_copy_constructible_v<std::decay_t<F>>) {
      return spawn_impl(std::move(name), std::function<void()>(
                                             std::forward<F>(body)));
    } else {
      auto holder =
          std::make_shared<std::decay_t<F>>(std::forward<F>(body));
      return spawn_impl(std::move(name), [holder] { (*holder)(); });
    }
  }

  /// Schedules a plain (non-blocking) handler.
  std::uint64_t schedule(SimTime delay, std::function<void()> fn) {
    return engine_.schedule(delay, std::move(fn));
  }
  std::uint64_t schedule_at(SimTime t, std::function<void()> fn) {
    return engine_.schedule_at(t, std::move(fn));
  }
  bool cancel(std::uint64_t event_id) { return engine_.cancel(event_id); }

  [[nodiscard]] SimTime now() const { return engine_.now(); }
  [[nodiscard]] Engine& engine() { return engine_; }
  /// Observability bundle (tracer + metrics registry); see DESIGN.md §9.
  [[nodiscard]] obs::Hub& obs() { return engine_.obs(); }

  /// Starts the live-snapshot pump (DESIGN.md §15): every `period` of
  /// simulated time, obs().publish() delivers a registry snapshot to the
  /// attached sinks. The pump stops itself once it is the only pending
  /// event, so run() (which runs until the queue drains) still
  /// terminates; never installed unless a consumer asks, so runs without
  /// live snapshots keep their historical event schedule and digests.
  /// At most one pump per simulation.
  void publish_metrics_every(SimTime period);
  [[nodiscard]] bool metrics_pump_active() const { return pump_active_; }

  /// Starts a run's requested artifacts: the tracer when a trace is
  /// requested and, when `artifacts` asks for live metrics, the numbered
  /// snapshot writer plus the pump at its `metrics_every_ms` cadence. Call
  /// after construction, before traffic starts. Every experiment driver
  /// goes through here, so `--metrics-every` means the same everywhere.
  void begin_artifacts(const obs::Artifacts& artifacts);

  /// Runs until no events remain (blocked processes may still exist — that
  /// models processes waiting forever). Rethrows the first process error.
  void run();
  void run_until(SimTime t);
  void run_for(SimTime d) { run_until(now() + d); }

  // ---- Callable only from inside a process ----

  /// The currently-running process, or nullptr when in the scheduler.
  [[nodiscard]] Process* current() const { return current_; }

  /// Advances this process by `d` of simulated time.
  void delay(SimTime d);
  /// Blocks this process until some other party calls wake() on it.
  /// `reason` shows up in diagnostics for deadlocked runs.
  void block_current(const std::string& reason);
  /// Wakes a process blocked in block_current(); no-op if not blocked.
  /// The process resumes via an event at the current simulated time.
  void wake(Process& p);

  /// Blocking wrapper over a callback-form operation: calls `start(done)`
  /// and suspends the calling process until `done` has run. `done` is a
  /// small handler to pass on to the operation (sim::Resource::acquire,
  /// net::Topology::traverse). When the operation completes inline, the
  /// process never blocks; when `done` runs later from an event handler,
  /// it resumes the process right there, so waiting this way costs exactly
  /// the events the operation itself schedules — no extra wake event.
  template <typename Start>
  void await(const std::string& reason, Start&& start) {
    Process* p = current_;
    if (p == nullptr) {
      throw std::logic_error("Simulation::await outside a process (" +
                             reason + ")");
    }
    bool done = false;
    start([this, p, &done] {
      done = true;
      resume_blocked(*p);
    });
    if (!done) block_current(reason);
  }

  // ---- Introspection ----
  [[nodiscard]] std::size_t live_process_count() const;
  [[nodiscard]] std::vector<std::string> blocked_process_names() const;
  [[nodiscard]] bool shutting_down() const { return shutting_down_; }
  [[nodiscard]] std::uint64_t events_fired() const {
    return engine_.events_fired();
  }
  /// Processes spawned so far, finished or not. Each one is a fiber with
  /// its own stack, so this is a deterministic cost counter: the bench
  /// records gate it exactly.
  [[nodiscard]] std::uint64_t processes_spawned() const {
    return next_process_id_ - 1;
  }

 private:
  friend class Process;

  Process& spawn_impl(std::string name, std::function<void()> body);
  void resume(Process& p);
  /// Resumes `p` now if it is blocked; no-op while it runs (an await()
  /// whose operation completed inline) or during shutdown.
  void resume_blocked(Process& p);
  void check_current_killed();
  void pump_snapshot(SimTime period);

  Engine engine_;
  bool pump_active_ = false;
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;
  std::uint64_t next_process_id_ = 1;
  bool shutting_down_ = false;
  bool running_ = false;
};

}  // namespace sv::sim
