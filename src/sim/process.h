// A simulated process: user code that runs on its own stackful fiber, on the
// scheduler's thread, and is scheduled cooperatively — exactly one process
// (or the scheduler) executes at any instant, so simulation state needs no
// locking and runs are deterministic.
//
// Processes block inside simulated primitives (delay, channels, resources);
// the scheduler resumes them when the corresponding simulated event fires.
// A block or resume is a user-space stack switch, not an OS context switch.
//
// Stack contract (DESIGN.md §5): every process gets kStackBytes of stack,
// reserved with mmap but only backed by memory as it is touched, with an
// inaccessible guard page below it — a process that recurses past its stack
// dies on the guard page instead of corrupting memory. A process must not
// block inside a catch handler: exception-handling state is per OS thread,
// and every process shares the scheduler's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>

namespace sv::sim {

class Simulation;

/// Thrown inside a process when the simulation shuts down while the process
/// is blocked; unwinds the process's stack cleanly. User code should not
/// catch it (or must rethrow).
struct ProcessKilled {};

class Process {
 public:
  /// Usable stack per process (the guard page comes on top of this).
  static constexpr std::size_t kStackBytes = std::size_t{256} * 1024;

  Process(Simulation* sim, std::uint64_t id, std::string name,
          std::function<void()> body);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool blocked() const { return blocked_; }
  /// Non-empty label describing what the process is blocked on (diagnostics).
  [[nodiscard]] const std::string& block_reason() const {
    return block_reason_;
  }

 private:
  friend class Simulation;
  class Fiber;  // stack + saved registers; process.cc

  /// Scheduler-side: switch to the process, return when it yields back.
  void resume_from_scheduler();
  /// Process-side: switch back to the scheduler, return when resumed.
  void yield_to_scheduler();
  [[noreturn]] static void fiber_main(void* self);

  Simulation* sim_;
  std::uint64_t id_;
  std::string name_;
  std::function<void()> body_;

  bool finished_ = false;
  bool blocked_ = false;       // waiting for an explicit wake()
  std::uint64_t wait_epoch_ = 0;  // bumps on every block; guards stale wakes
  std::string block_reason_;
  std::exception_ptr error_;
  std::unique_ptr<Fiber> fiber_;  // released once the body has returned
};

}  // namespace sv::sim
