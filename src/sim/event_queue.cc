#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace sv::sim {
namespace {

// ---------------------------------------------------------------------------
// ReferenceEventQueue: the seed engine's binary heap + tombstone sets,
// preserved verbatim as the differential-testing oracle.
// ---------------------------------------------------------------------------

class ReferenceEventQueue final : public EventQueue {
 public:
  void push(SimTime t, std::uint64_t seq, std::uint64_t id,
            InlineHandler fn) override {
    queue_.push(Event{t, seq, id, std::move(fn)});
    pending_ids_.insert(id);
  }

  bool cancel(std::uint64_t id) override {
    // Exact membership test: ids that already fired (or were never issued)
    // are rejected without touching any bookkeeping.
    if (pending_ids_.erase(id) == 0) return false;
    cancelled_.insert(id);
    return true;
  }

  bool pop(SimTime limit, FiredEvent* out) override {
    while (!queue_.empty()) {
      // Peek: stop at the boundary first, then skip tombstones without
      // extracting live events. Tombstones beyond `limit` stay queued
      // until the clock actually reaches them (lazy purge keeps run_until
      // O(events <= limit)).
      const Event& top = queue_.top();
      if (top.time > limit) return false;
      if (cancelled_.erase(top.id) != 0) {
        queue_.pop();
        continue;
      }
      pending_ids_.erase(top.id);
      out->time = top.time;
      out->id = top.id;
      // priority_queue::top() is const; moving the handler out is safe
      // because the element is popped immediately after.
      out->fn = std::move(const_cast<Event&>(top).fn);
      queue_.pop();
      return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t tombstone_count() const override {
    return cancelled_.size();
  }

  [[nodiscard]] const char* name() const override { return "reference_heap"; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t id;
    InlineHandler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Ids of events currently in the queue and not cancelled. Membership
  // makes cancel() exact. Never iterated (svlint SV001); membership tests
  // only.
  std::unordered_set<std::uint64_t> pending_ids_;
  // Cancelled ids are tombstoned and skipped on pop; every tombstone
  // corresponds to an event still in queue_, so the set cannot grow beyond
  // the queue and is fully purged as the queue drains.
  std::unordered_set<std::uint64_t> cancelled_;
};

// ---------------------------------------------------------------------------
// TimingWheelEventQueue: hierarchical timing wheel over arena slots.
//
// Geometry (DESIGN.md §12): 1 tick = 2^10 ns; three levels of 2^8 buckets
// each, so level l spans 2^(10+8(l+1)) ns — L0 ≈ 262 us, L1 ≈ 67 ms,
// L2 ≈ 17.2 s. An event is filed at the lowest level whose *current wrap*
// contains its tick (its tick agrees with cur_tick_ on all bits above that
// level); events beyond the current L2 epoch wait in a sorted far list.
// This placement rule guarantees a bucket never mixes events from
// different wraps, so scanning each level's occupancy bitmap strictly
// forward is complete, and cascading re-files a bucket's events exactly
// once per level crossed.
//
// Ordering: buckets are unsorted intrusive stacks; the bucket due next is
// drained into `drain_`, a scratch vector sorted by (time, seq) — the same
// total order the reference heap pops in. Events scheduled at or before
// the wheel's current position (schedule-at-now, or pushes after the wheel
// advanced past their tick during a bounded run_until) are merge-inserted
// into `drain_` directly, preserving the order.
// ---------------------------------------------------------------------------

/// 256-bit occupancy map with find-first-set-at-or-after.
struct Bitmap256 {
  std::uint64_t w[4] = {0, 0, 0, 0};

  void set(unsigned i) { w[i >> 6] |= 1ULL << (i & 63); }
  void clear(unsigned i) { w[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Smallest set index >= from, or -1.
  [[nodiscard]] int next_set(unsigned from) const {
    if (from >= 256) return -1;
    unsigned word = from >> 6;
    std::uint64_t bits = w[word] & (~0ULL << (from & 63));
    while (true) {
      if (bits != 0) {
        return static_cast<int>((word << 6) +
                                static_cast<unsigned>(std::countr_zero(bits)));
      }
      if (++word == 4) return -1;
      bits = w[word];
    }
  }
};

class TimingWheelEventQueue final : public EventQueue {
 public:
  static constexpr int kTickShift = 10;  // 1 tick = 1024 ns
  static constexpr int kLevelBits = 8;   // 256 buckets per level
  static constexpr int kLevels = 3;
  static constexpr std::size_t kBuckets = 1u << kLevelBits;
  static constexpr std::uint64_t kBucketMask = kBuckets - 1;

  explicit TimingWheelEventQueue(obs::Registry* registry)
      : arena_(registry) {
    if (registry != nullptr) {
      cascades_ = &registry->counter("sim.wheel_cascades");
      far_queued_ = &registry->counter("sim.wheel_far_queued");
    } else {
      cascades_ = &own_cascades_;
      far_queued_ = &own_far_;
    }
  }

  void push(SimTime t, std::uint64_t seq, std::uint64_t id,
            InlineHandler fn) override {
    EventSlot* s = arena_.acquire();
    s->time = t;
    s->seq = seq;
    s->id = id;
    s->fn = std::move(fn);
    if (s->fn.heap_allocated()) arena_.handler_heap_counter()->inc();
    ids_.insert(id, s->index);
    place(s);
  }

  bool cancel(std::uint64_t id) override {
    std::uint32_t idx = 0;
    // Exact: fired and cancelled events left the map, so their ids miss.
    if (!ids_.erase(id, &idx)) return false;
    EventSlot* s = arena_.slot_at(idx);
    SV_DCHECK(s->live && s->id == id, "id map points at a stale slot");
    s->cancelled = true;
    ++tombstones_;
    return true;
  }

  bool pop(SimTime limit, FiredEvent* out) override {
    while (true) {
      if (drain_pos_ < drain_.size()) {
        EventSlot* s = drain_[drain_pos_];
        // Boundary first, purge second: a cancelled event beyond `limit`
        // stays queued, exactly like the reference heap.
        if (s->time > limit) return false;
        ++drain_pos_;
        if (s->cancelled) {
          SV_DCHECK(tombstones_ > 0, "tombstone underflow");
          --tombstones_;
          arena_.release(s);
          continue;
        }
        std::uint32_t idx = 0;
        [[maybe_unused]] const bool mapped = ids_.erase(s->id, &idx);
        SV_DCHECK(mapped, "live event missing from the id map");
        out->time = s->time;
        out->id = s->id;
        out->fn = std::move(s->fn);
        arena_.release(s);
        return true;
      }
      drain_.clear();
      drain_pos_ = 0;
      if (!refill()) return false;
    }
  }

  [[nodiscard]] std::size_t tombstone_count() const override {
    return tombstones_;
  }

  [[nodiscard]] const char* name() const override { return "timing_wheel"; }

  // ---- White-box introspection (tests / benches) ----
  [[nodiscard]] const EventArena& arena() const { return arena_; }
  [[nodiscard]] std::size_t far_count() const { return far_.size(); }

 private:
  [[nodiscard]] static std::uint64_t to_tick(SimTime t) {
    SV_DCHECK(t.ns() >= 0, "negative event time");
    return static_cast<std::uint64_t>(t.ns()) >> kTickShift;
  }

  [[nodiscard]] static bool before(const EventSlot* a, const EventSlot* b) {
    if (a->time != b->time) return a->time < b->time;
    return a->seq < b->seq;
  }

  /// Files a slot by tick. Lowest level whose current wrap contains the
  /// tick; at-or-before the wheel position goes straight to drain_.
  void place(EventSlot* s) {
    const std::uint64_t tick = to_tick(s->time);
    if (tick <= cur_tick_) {
      drain_insert(s);
      return;
    }
    for (int lvl = 0; lvl < kLevels; ++lvl) {
      const int above = kLevelBits * (lvl + 1);
      if ((tick >> above) == (cur_tick_ >> above)) {
        const auto idx =
            static_cast<unsigned>((tick >> (kLevelBits * lvl)) & kBucketMask);
        s->next = buckets_[lvl][idx];
        buckets_[lvl][idx] = s;
        occupied_[lvl].set(idx);
        ++wheel_slots_;
        return;
      }
    }
    far_insert(s);
  }

  /// Sorted insert into drain_ at a position >= drain_pos_. Events already
  /// consumed (indices < drain_pos_) fired at times <= now or were
  /// tombstones, so the suffix is the only live ordering domain.
  void drain_insert(EventSlot* s) {
    const auto it = std::lower_bound(drain_.begin() + static_cast<std::ptrdiff_t>(drain_pos_),
                                     drain_.end(), s, before);
    drain_.insert(it, s);
  }

  /// Comparator for the far min-heap: std::push_heap builds a max-heap, so
  /// invert before() to keep the earliest (time, seq) at the front.
  [[nodiscard]] static bool far_later(const EventSlot* a, const EventSlot* b) {
    return before(b, a);
  }

  /// Events beyond the current L2 epoch wait in a binary min-heap keyed on
  /// (time, seq). Only min-extraction order matters here (FIFO-within-
  /// timestamp is restored when the slots are re-filed into the wheel and
  /// drain_ sorts them), so a heap's O(log n) insert beats a sorted list's
  /// linear scan for the uniformly-random far horizons the stacks generate.
  /// The backing vector is reused across epochs: steady state stays
  /// zero-alloc once it has grown to the high-water mark.
  void far_insert(EventSlot* s) {
    far_queued_->inc();
    far_.push_back(s);
    std::push_heap(far_.begin(), far_.end(), far_later);
  }

  /// Moves every far event in the wheel's (new) current L2 epoch into the
  /// wheel. Called right after cur_tick_ jumps epochs.
  void pull_far() {
    const int above = kLevelBits * kLevels;
    while (!far_.empty() &&
           (to_tick(far_.front()->time) >> above) == (cur_tick_ >> above)) {
      std::pop_heap(far_.begin(), far_.end(), far_later);
      EventSlot* s = far_.back();
      far_.pop_back();
      place(s);
    }
  }

  /// Unlinks bucket (lvl, idx) and re-files each slot against the current
  /// wheel position (slots land one level down, or in drain_).
  void cascade(int lvl, unsigned idx) {
    EventSlot* s = buckets_[lvl][idx];
    buckets_[lvl][idx] = nullptr;
    occupied_[lvl].clear(idx);
    while (s != nullptr) {
      EventSlot* next = s->next;
      s->next = nullptr;
      --wheel_slots_;
      cascades_->inc();
      place(s);
      s = next;
    }
  }

  /// Drains L0 bucket `idx` (all slots share one tick) into drain_,
  /// sorted by (time, seq).
  void drain_bucket(unsigned idx) {
    SV_DCHECK(drain_.empty() && drain_pos_ == 0, "drain not consumed");
    EventSlot* s = buckets_[0][idx];
    buckets_[0][idx] = nullptr;
    occupied_[0].clear(idx);
    while (s != nullptr) {
      drain_.push_back(s);
      --wheel_slots_;
      EventSlot* next = s->next;
      s->next = nullptr;
      s = next;
    }
    // The bucket is a LIFO stack, so pushes in seq order come out reversed;
    // undoing the reversal restores (time, seq) order outright whenever the
    // bucket was filled front-to-back (the common case — e.g. an entire
    // same-timestamp burst), making the sort a verify-only pass.
    std::reverse(drain_.begin(), drain_.end());
    if (!std::is_sorted(drain_.begin(), drain_.end(), before)) {
      std::sort(drain_.begin(), drain_.end(), before);
    }
  }

  /// Advances the wheel to the next occupied tick and drains it into
  /// drain_; false when nothing is queued anywhere.
  bool refill() {
    while (true) {
      // Level 0: next occupied bucket in the current 256-tick block.
      const int b0 =
          occupied_[0].next_set(static_cast<unsigned>(cur_tick_ & kBucketMask));
      if (b0 >= 0) {
        cur_tick_ = (cur_tick_ & ~kBucketMask) + static_cast<unsigned>(b0);
        drain_bucket(static_cast<unsigned>(b0));
        return true;
      }
      // Level 1: jump to the next occupied bucket later in this wrap.
      // Strictly-forward scans are complete because placement never files
      // next-wrap events into a level (see class comment).
      const int b1 = occupied_[1].next_set(
          static_cast<unsigned>((cur_tick_ >> kLevelBits) & kBucketMask) + 1);
      if (b1 >= 0) {
        cur_tick_ = (cur_tick_ & ~((kBucketMask << kLevelBits) | kBucketMask)) |
                    (static_cast<std::uint64_t>(b1) << kLevelBits);
        cascade(1, static_cast<unsigned>(b1));
        // Slots at exactly the new wheel position (L0 index 0 of the
        // cascaded bucket) were re-filed straight into drain_; they are
        // due now and strictly earlier than anything still in a bucket.
        if (drain_pos_ < drain_.size()) return true;
        continue;
      }
      // Level 2.
      const int b2 = occupied_[2].next_set(
          static_cast<unsigned>((cur_tick_ >> (2 * kLevelBits)) & kBucketMask) +
          1);
      if (b2 >= 0) {
        const std::uint64_t keep = cur_tick_ >> (3 * kLevelBits);
        cur_tick_ = (keep << (3 * kLevelBits)) |
                    (static_cast<std::uint64_t>(b2) << (2 * kLevelBits));
        cascade(2, static_cast<unsigned>(b2));
        if (drain_pos_ < drain_.size()) return true;
        continue;
      }
      // Current L2 epoch exhausted: jump to the earliest far event's epoch.
      SV_DCHECK(wheel_slots_ == 0, "wheel slots unreachable by scan");
      if (far_.empty()) return false;
      cur_tick_ = to_tick(far_.front()->time);
      pull_far();
      // The pulled head landed in drain_ (tick == cur_tick_) or a bucket.
      if (drain_pos_ < drain_.size()) return true;
    }
  }

  EventArena arena_;
  IdSlotMap ids_;
  EventSlot* buckets_[kLevels][kBuckets] = {};
  Bitmap256 occupied_[kLevels];
  /// The wheel's position: every event with tick < cur_tick_ has been
  /// moved to drain_ (or fired/purged); the L0 bucket for cur_tick_ itself
  /// is always empty (same-tick pushes go to drain_).
  std::uint64_t cur_tick_ = 0;
  /// Sorted scratch of due events; reused across refills so the
  /// steady-state hot path never allocates.
  std::vector<EventSlot*> drain_;
  std::size_t drain_pos_ = 0;
  /// Min-heap (see far_later) of events beyond the current L2 epoch.
  std::vector<EventSlot*> far_;
  std::size_t wheel_slots_ = 0;
  std::size_t tombstones_ = 0;
  obs::Counter own_cascades_, own_far_;
  obs::Counter* cascades_ = nullptr;
  obs::Counter* far_queued_ = nullptr;
};

}  // namespace

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind,
                                             obs::Registry* registry) {
  if (kind == QueueKind::kReferenceHeap) {
    return std::make_unique<ReferenceEventQueue>();
  }
  return std::make_unique<TimingWheelEventQueue>(registry);
}

}  // namespace sv::sim
