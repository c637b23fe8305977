// Arena invariants (DESIGN.md §12): no slot aliasing, the free list fully
// drains as events fire, and steady-state scheduling is zero-alloc — after
// warm-up every acquire is a reuse (sim.arena_slot_alloc stops moving while
// sim.arena_slot_reuse keeps counting).
#include "sim/event_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace sv::sim {
namespace {

TEST(EventArenaTest, AcquireReturnsDistinctLiveSlots) {
  EventArena arena(nullptr);
  std::set<EventSlot*> seen;
  std::vector<EventSlot*> held;
  for (int i = 0; i < 1000; ++i) {
    EventSlot* s = arena.acquire();
    EXPECT_TRUE(seen.insert(s).second) << "slot handed out twice while live";
    held.push_back(s);
  }
  EXPECT_EQ(arena.live_count(), 1000u);
  EXPECT_EQ(arena.free_count(), 0u);
  // 1000 slots / 256 per slab.
  EXPECT_EQ(arena.slab_allocs(), 4u);
  for (EventSlot* s : held) arena.release(s);
  EXPECT_EQ(arena.live_count(), 0u);
  EXPECT_EQ(arena.free_count(), 1000u);
}

TEST(EventArenaTest, ReleaseRecyclesThroughFreeList) {
  EventArena arena(nullptr);
  EventSlot* a = arena.acquire();
  const std::uint32_t index = a->index;
  arena.release(a);
  EventSlot* b = arena.acquire();
  // LIFO free list: the most recently released slot comes back first, and
  // its stable index survives recycling.
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->index, index);
  EXPECT_EQ(arena.slot_reuses(), 1u);
  EXPECT_EQ(arena.slot_allocs(), 1u);
  arena.release(b);
}

TEST(EventArenaTest, DoubleReleaseIsCaughtInDebug) {
#ifndef NDEBUG
  EventArena arena(nullptr);
  EventSlot* s = arena.acquire();
  arena.release(s);
  EXPECT_THROW(arena.release(s), CheckFailure);
#else
  GTEST_SKIP() << "SV_DCHECK compiled out";
#endif
}

TEST(EventArenaTest, SlotAtMapsIndicesBackToSlots) {
  EventArena arena(nullptr);
  std::vector<EventSlot*> held;
  for (int i = 0; i < 600; ++i) held.push_back(arena.acquire());
  for (EventSlot* s : held) {
    EXPECT_EQ(arena.slot_at(s->index), s);
  }
  for (EventSlot* s : held) arena.release(s);
}

TEST(IdSlotMapTest, InsertEraseRoundTripsThroughGrowth) {
  IdSlotMap map;
  // Push well past the initial capacity to force several growths, then
  // erase in an unrelated order to exercise backward-shift deletion.
  constexpr std::uint64_t kN = 20'000;
  for (std::uint64_t id = 1; id <= kN; ++id) {
    map.insert(id, static_cast<std::uint32_t>(id * 3));
  }
  EXPECT_EQ(map.size(), kN);
  std::uint32_t out = 0;
  for (std::uint64_t id = kN; id >= 1; --id) {
    if (id % 3 == 0) continue;  // leave residue to stress later probes
    ASSERT_TRUE(map.erase(id, &out)) << id;
    EXPECT_EQ(out, static_cast<std::uint32_t>(id * 3));
    EXPECT_FALSE(map.erase(id, &out)) << "double erase must miss";
  }
  for (std::uint64_t id = 3; id <= kN; id += 3) {
    ASSERT_TRUE(map.erase(id, &out)) << id;
    EXPECT_EQ(out, static_cast<std::uint32_t>(id * 3));
  }
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.erase(12345, &out));
}

TEST(InlineHandlerTest, SmallCallablesStayInline) {
  int hits = 0;
  InlineHandler h([&hits] { ++hits; });
  EXPECT_FALSE(h.heap_allocated());
  EXPECT_TRUE(static_cast<bool>(h));
  h();
  EXPECT_EQ(hits, 1);
  InlineHandler moved = std::move(h);
  EXPECT_FALSE(static_cast<bool>(h));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(InlineHandlerTest, OversizedCallablesSpillToHeapAndStillRun) {
  struct Big {
    std::uint64_t pad[16];  // 128 bytes > the 48-byte inline buffer
    int* sink;
    void operator()() const { *sink += static_cast<int>(pad[0]); }
  };
  int total = 0;
  Big big{};
  big.pad[0] = 7;
  big.sink = &total;
  InlineHandler h(big);
  EXPECT_TRUE(h.heap_allocated());
  InlineHandler moved = std::move(h);
  moved();
  EXPECT_EQ(total, 7);
}

TEST(EventArenaTest, SteadyStateSchedulingIsZeroAlloc) {
  // Drive a full Engine (timing wheel) through a warm-up phase, then a long
  // steady-state phase with the same live-event footprint. Steady state
  // must allocate nothing: slab and slot-alloc counters freeze while the
  // reuse counter keeps advancing (the pool_alloc/pool_reuse idiom from
  // mem.* applied to the event core).
  Engine e(QueueKind::kTimingWheel);
  obs::Registry& reg = e.obs().registry;
  obs::Counter& slot_alloc = reg.counter("sim.arena_slot_alloc");
  obs::Counter& slot_reuse = reg.counter("sim.arena_slot_reuse");
  obs::Counter& slabs = reg.counter("sim.arena_slabs");
  obs::Counter& handler_heap = reg.counter("sim.arena_handler_heap");

  constexpr int kLive = 512;
  for (int i = 0; i < kLive; ++i) {
    e.schedule(SimTime::microseconds(1 + i), [] {});
  }
  // Warm-up: cycle the full footprint a few times so every slot has been
  // through the free list at least once.
  for (int i = 0; i < 4 * kLive; ++i) {
    e.schedule(SimTime::microseconds(600), [] {});
    e.step();
  }
  const std::uint64_t allocs_before = slot_alloc.value();
  const std::uint64_t slabs_before = slabs.value();
  const std::uint64_t reuse_before = slot_reuse.value();

  for (int i = 0; i < 20'000; ++i) {
    e.schedule(SimTime::microseconds(600), [] {});
    e.step();
  }

  EXPECT_EQ(slot_alloc.value(), allocs_before)
      << "steady state carved fresh arena slots";
  EXPECT_EQ(slabs.value(), slabs_before) << "steady state allocated a slab";
  EXPECT_EQ(slot_reuse.value(), reuse_before + 20'000u);
  EXPECT_EQ(handler_heap.value(), 0u)
      << "a small lambda spilled out of the inline handler buffer";
  e.run();
}

}  // namespace
}  // namespace sv::sim
