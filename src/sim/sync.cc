#include "sim/sync.h"

#include <limits>

#include "common/check.h"

namespace sv::sim {

void WaitQueue::scrub() {
  while (!entries_.empty() && entries_.front()->done) {
    entries_.pop_front();
  }
}

bool WaitQueue::wait_until(SimTime deadline) {
  Process* p = sim_->current();
  if (p == nullptr) {
    throw std::logic_error("WaitQueue[" + name_ + "]::wait outside process");
  }
  if (deadline <= sim_->now()) return false;
  auto entry = std::make_shared<Entry>();
  entry->proc = p;
  entries_.push_back(entry);
  if (deadline != SimTime::max()) {
    // The timeout event deliberately captures only the shared entry and the
    // simulation — never `this` — so it stays safe even if the WaitQueue is
    // destroyed before the event fires. Timed-out entries are lazily
    // scrubbed.
    sim_->schedule_at(deadline, [sim = sim_, entry] {
      if (entry->done) return;
      entry->done = true;
      entry->notified = false;
      sim->wake(*entry->proc);
    });
  }
  sim_->block_current(name_);
  return entry->notified;
}

bool WaitQueue::notify_one() {
  scrub();
  if (entries_.empty()) return false;
  auto entry = std::move(entries_.front());
  entries_.pop_front();
  SV_DCHECK(entry->proc != nullptr && !entry->done,
            "WaitQueue[" + name_ + "]: scrubbed entry at queue head");
  entry->done = true;
  entry->notified = true;
  sim_->wake(*entry->proc);
  return true;
}

void WaitQueue::notify_all() {
  while (notify_one()) {
  }
}

std::size_t WaitQueue::waiter_count() const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (!e->done) ++n;
  }
  return n;
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
