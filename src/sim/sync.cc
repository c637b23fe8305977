#include "sim/sync.h"

#include <limits>

#include "common/check.h"

namespace sv::sim {

WaitQueue::~WaitQueue() {
  // Orphan the remaining entries: their processes are still blocked, and
  // a pending timer must find no queue to unlink from when it fires.
  for (Entry* e = head_; e != nullptr; e = e->next) e->queue = nullptr;
}

void WaitQueue::unlink(Entry* e) {
  SV_DCHECK(e->queue == this, "WaitQueue[" + name_ + "]: foreign entry");
  (e->prev != nullptr ? e->prev->next : head_) = e->next;
  (e->next != nullptr ? e->next->prev : tail_) = e->prev;
  e->prev = e->next = nullptr;
  e->queue = nullptr;
  --count_;
}

bool WaitQueue::wait_until(SimTime deadline) {
  Process* p = sim_->current();
  if (p == nullptr) {
    throw std::logic_error("WaitQueue[" + name_ + "]::wait outside process");
  }
  if (deadline <= sim_->now()) return false;
  Entry entry;
  entry.proc = p;
  entry.queue = this;
  entry.prev = tail_;
  (tail_ != nullptr ? tail_->next : head_) = &entry;
  tail_ = &entry;
  ++count_;
  if (deadline != SimTime::max()) {
    // The timer reaches the queue only through the entry, never through
    // `this`, so it stays safe if the WaitQueue is destroyed first.
    entry.timer =
        sim_->engine().schedule_at(deadline, [sim = sim_, e = &entry] {
          e->timer = 0;
          if (e->queue != nullptr) e->queue->unlink(e);
          sim->wake(*e->proc);
        });
  }
  // However the wait ends — notified, timed out, or unwound by
  // ProcessKilled at shutdown — the entry leaves the queue and its timer
  // leaves the engine before this frame does.
  struct Leave {
    Simulation* sim;
    Entry* e;
    ~Leave() {
      if (e->queue != nullptr) e->queue->unlink(e);
      if (e->timer != 0) sim->cancel(e->timer);
    }
  } leave{sim_, &entry};
  sim_->block_current(name_);
  return entry.notified;
}

bool WaitQueue::notify_one() {
  Entry* e = head_;
  if (e == nullptr) return false;
  unlink(e);
  e->notified = true;
  // A timed waiter's timer would now fire as a no-op that still counts as
  // an event and keeps run() going until the deadline; cancel it.
  if (e->timer != 0) {
    sim_->cancel(e->timer);
    e->timer = 0;
  }
  sim_->wake(*e->proc);
  return true;
}

void WaitQueue::notify_all() {
  while (notify_one()) {
  }
}

void Semaphore::acquire() {
  while (count_ <= 0) {
    queue_.wait();
  }
  --count_;
  SV_DCHECK(count_ >= 0, "Semaphore: count went negative");
}

bool Semaphore::try_acquire() {
  if (count_ <= 0) return false;
  --count_;
  return true;
}

void Semaphore::release() {
  // Overflow here means unbalanced release() calls (the semaphore analogue
  // of a double-release).
  SV_ASSERT(count_ < std::numeric_limits<std::int64_t>::max(),
            "Semaphore: release overflow (unbalanced release calls)");
  ++count_;
  queue_.notify_one();
}

}  // namespace sv::sim
