// Simulated synchronization primitives built on Simulation::block/wake.
//
// All primitives are condition-variable style: a woken waiter re-checks its
// predicate, so these compose safely even with multiple producers/consumers.
// FIFO wake order keeps runs deterministic.
//
// Every blocking wait in the simulator goes through one implementation,
// WaitQueue::wait_until(deadline). "Wait forever" is the deadline
// SimTime::max() (no timer event), and the untimed calls are wrappers over
// the timed ones. Timed APIs that take a relative timeout turn it into a
// deadline once, with deadline_after(), where a timeout <= 0 means forever.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/result.h"
#include "sim/simulation.h"

namespace sv::sim {

/// The absolute deadline of a wait of `timeout` that starts at `now`. A
/// timeout <= 0 means "wait forever" (SimTime::max()), and a timeout too
/// large to add to `now` saturates at SimTime::max() instead of
/// overflowing.
[[nodiscard]] constexpr SimTime deadline_after(SimTime now, SimTime timeout) {
  if (timeout <= SimTime::zero() || timeout >= SimTime::max() - now) {
    return SimTime::max();
  }
  return now + timeout;
}

/// A FIFO queue of blocked processes; the building block for conditions,
/// semaphores and channels.
class WaitQueue {
 public:
  explicit WaitQueue(Simulation* sim, std::string name = "waitq")
      : sim_(sim), name_(std::move(name)) {}
  /// Processes still waiting stay blocked; a timed waiter still times out.
  ~WaitQueue();

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  /// Blocks the calling process until notified.
  void wait() { (void)wait_until(SimTime::max()); }
  /// Blocks until notified or until simulated time reaches `deadline`.
  /// Returns true if notified, false on timeout. SimTime::max() waits
  /// forever and schedules no timer; a deadline at or before now() returns
  /// false at once, without blocking or scheduling anything; any other
  /// deadline schedules exactly one timer event, at `deadline`, which a
  /// notify cancels.
  bool wait_until(SimTime deadline);

  /// Wakes the oldest waiter; returns false if none.
  bool notify_one();
  /// Wakes all current waiters.
  void notify_all();

  [[nodiscard]] std::size_t waiter_count() const { return count_; }
  [[nodiscard]] bool has_waiters() const { return count_ > 0; }

 private:
  /// One waiter. It lives on the waiting process's stack for the duration
  /// of wait_until() and is linked into the queue while it waits, so a
  /// wait allocates nothing.
  struct Entry {
    Process* proc = nullptr;
    WaitQueue* queue = nullptr;  // null once notified, timed out or orphaned
    Entry* prev = nullptr;
    Entry* next = nullptr;
    std::uint64_t timer = 0;  // pending timeout event id; 0 = none
    bool notified = false;
  };

  void unlink(Entry* e);

  Simulation* sim_;
  std::string name_;
  Entry* head_ = nullptr;
  Entry* tail_ = nullptr;
  std::size_t count_ = 0;
};

/// Counting semaphore with FIFO handoff.
class Semaphore {
 public:
  Semaphore(Simulation* sim, std::int64_t initial, std::string name = "sem")
      : count_(initial), queue_(sim, std::move(name)) {}

  void acquire();
  /// Non-blocking acquire; true on success.
  bool try_acquire();
  void release();

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::size_t waiter_count() const {
    return queue_.waiter_count();
  }

 private:
  std::int64_t count_;
  WaitQueue queue_;
};

/// Bounded (or unbounded with capacity 0 meaning "no limit") FIFO channel.
/// send() blocks while full; recv() blocks while empty. close() makes
/// further recv() calls drain remaining items then return nullopt.
template <typename T>
class Channel {
 public:
  Channel(Simulation* sim, std::size_t capacity, std::string name = "chan")
      : sim_(sim),
        capacity_(capacity),
        name_(std::move(name)),
        senders_(sim, name_ + ".send"),
        receivers_(sim, name_ + ".recv") {}

  /// Blocks while the channel is full. Throws if the channel is closed.
  void send(T item) {
    while (capacity_ != 0 && items_.size() >= capacity_ && !closed_) {
      senders_.wait();
    }
    if (closed_) {
      throw std::logic_error("Channel[" + name_ + "]: send after close");
    }
    items_.push_back(std::move(item));
    receivers_.notify_one();
  }

  /// Non-blocking send; false if full or closed.
  bool try_send(T item) {
    if (closed_) return false;
    if (capacity_ != 0 && items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    receivers_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> recv() {
    (void)await_item(SimTime::max());
    return try_recv();
  }

  /// Timed receive: like recv() but gives up after `timeout` with an
  /// ErrorCode::kTimeout error. ok(nullopt) still means closed-and-drained;
  /// `timeout` <= 0 means wait forever.
  [[nodiscard]] Result<std::optional<T>> recv_for(SimTime timeout) {
    if (!await_item(deadline_after(sim_->now(), timeout))) {
      return Error::timeout("Channel[" + name_ + "]: recv timed out after " +
                            timeout.to_string());
    }
    return try_recv();
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    senders_.notify_one();
    return item;
  }

  /// Marks the channel closed; wakes all blocked parties.
  void close() {
    closed_ = true;
    receivers_.notify_all();
    senders_.notify_all();
  }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// Blocks until an item is queued or the channel is closed; false if
  /// `deadline` passed first.
  bool await_item(SimTime deadline) {
    while (items_.empty() && !closed_) {
      if (!receivers_.wait_until(deadline) && items_.empty() && !closed_) {
        return false;
      }
    }
    return true;
  }

  Simulation* sim_;
  std::size_t capacity_;
  std::string name_;
  std::deque<T> items_;
  bool closed_ = false;
  WaitQueue senders_;
  WaitQueue receivers_;
};

}  // namespace sv::sim
