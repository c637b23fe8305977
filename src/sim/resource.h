// FIFO resources: model CPU cores, NIC engines and link occupancy.
//
// Resource hands units to waiters in strict FIFO order with direct handoff
// (a released unit goes straight to the oldest waiter and cannot be stolen
// by a later arrival at the same timestamp), which is what a work-conserving
// hardware queue does and keeps the simulation deterministic.
//
// Waiters are continuations, all in one FIFO. Event-driven stages (the fast
// fabric's wire and protocol stages, the tcpstack and VIA engines) queue
// their next step directly with the callback forms; a blocked process queues the handler that resumes
// it, through Simulation::await. Either way a handoff in release() is one
// event at now().
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>

#include "common/units.h"
#include "sim/simulation.h"

namespace sv::sim {

class Resource {
 public:
  Resource(Simulation* sim, std::int64_t capacity,
           std::string name = "resource");

  /// Blocks the calling process until a unit is available, then holds it.
  void acquire();
  /// Callback form: takes a unit and runs `then` at once when one is free
  /// and nobody is queued; otherwise queues `then` behind the waiters
  /// already there, to run when release() hands it the unit.
  void acquire(InlineHandler then);
  /// Non-blocking; true on success.
  bool try_acquire();
  /// Returns a unit; if someone is waiting, the unit transfers directly:
  /// the oldest waiter's continuation is scheduled at now().
  void release();
  /// acquire(); delay(hold); release() — the common "occupy for t" pattern.
  void use(SimTime hold);
  /// Callback form of use(): once granted, holds the unit for `hold`,
  /// releases it, then runs `then`. `then` travels by value inside two
  /// engine handlers, so keep it small (a pointer or two) to stay within
  /// InlineHandler's inline buffer.
  template <typename F>
  void use(SimTime hold, F then);

  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t in_use() const { return in_use_; }
  [[nodiscard]] std::int64_t available() const { return capacity_ - in_use_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }

  /// Cumulative busy integral (unit-nanoseconds) for utilization reporting.
  [[nodiscard]] std::int64_t busy_ns() const;
  [[nodiscard]] double utilization(SimTime window_start,
                                   SimTime window_end) const;

 private:
  void account();

  Simulation* sim_;
  std::int64_t capacity_;
  std::string name_;
  std::int64_t in_use_ = 0;
  std::deque<InlineHandler> waiters_;

  // Busy-time accounting.
  mutable SimTime last_change_ = SimTime::zero();
  mutable std::int64_t busy_integral_ns_ = 0;
};

template <typename F>
void Resource::use(SimTime hold, F then) {
  if (hold < SimTime::zero()) {
    throw std::invalid_argument("Resource[" + name_ + "]::use: negative hold");
  }
  acquire([this, hold, then = std::move(then)]() mutable {
    sim_->engine().schedule(hold, [this, then = std::move(then)]() mutable {
      release();
      then();
    });
  });
}

/// A full-duplex point-to-point pipe modelled as two independent
/// single-server resources (TX of the sender side, RX of the receiver side).
struct DuplexPort {
  DuplexPort(Simulation* sim, const std::string& name)
      : tx(sim, 1, name + ".tx"), rx(sim, 1, name + ".rx") {}
  Resource tx;
  Resource rx;
};

}  // namespace sv::sim
