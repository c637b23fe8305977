#include "sim/resource.h"

#include <stdexcept>

#include "common/check.h"

namespace sv::sim {

Resource::Resource(Simulation* sim, std::int64_t capacity, std::string name)
    : sim_(sim), capacity_(capacity), name_(std::move(name)) {
  if (capacity <= 0) {
    throw std::invalid_argument("Resource[" + name_ + "]: capacity must be > 0");
  }
}

void Resource::account() {
  const SimTime now = sim_->now();
  SV_DCHECK(now >= last_change_,
            "Resource[" + name_ + "]: simulated clock moved backwards");
  busy_integral_ns_ += in_use_ * (now - last_change_).ns();
  last_change_ = now;
}

void Resource::acquire() {
  sim_->await(name_, [this](InlineHandler done) { acquire(std::move(done)); });
  // Direct handoff: release() transferred the unit to us before resuming
  // us, so in_use_ already counts this holder. Nothing to re-check.
  SV_DCHECK(in_use_ > 0 && in_use_ <= capacity_,
            "Resource[" + name_ + "]: handoff bookkeeping corrupt");
}

void Resource::acquire(InlineHandler then) {
  if (try_acquire()) {
    then();
    return;
  }
  waiters_.push_back(std::move(then));
}

bool Resource::try_acquire() {
  if (in_use_ < capacity_ && waiters_.empty()) {
    account();
    ++in_use_;
    SV_DCHECK(in_use_ <= capacity_,
              "Resource[" + name_ + "]: holders exceed capacity");
    return true;
  }
  return false;
}

void Resource::release() {
  // Double-release detection: every release must match a held unit.
  SV_ASSERT(in_use_ > 0,
            "Resource[" + name_ + "]::release with none held (double release?)");
  if (!waiters_.empty()) {
    // Transfer the unit directly to the oldest waiter; in_use_ is unchanged.
    InlineHandler next = std::move(waiters_.front());
    waiters_.pop_front();
    sim_->engine().schedule(SimTime::zero(), std::move(next));
    return;
  }
  account();
  --in_use_;
}

void Resource::use(SimTime hold) {
  sim_->await(name_, [this, hold](auto done) { use(hold, std::move(done)); });
}

std::int64_t Resource::busy_ns() const {
  const SimTime now = sim_->now();
  return busy_integral_ns_ + in_use_ * (now - last_change_).ns();
}

double Resource::utilization(SimTime window_start, SimTime window_end) const {
  const auto span = (window_end - window_start).ns();
  if (span <= 0) return 0.0;
  return static_cast<double>(busy_ns()) /
         static_cast<double>(span * capacity_);
}

}  // namespace sv::sim
