#include "sim/resource.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace sv::sim {
namespace {

using namespace sv::literals;

TEST(ResourceTest, SingleServerSerializes) {
  Simulation s;
  Resource r(&s, 1);
  std::vector<SimTime> start_times;
  for (int i = 0; i < 3; ++i) {
    s.spawn("p" + std::to_string(i), [&] {
      r.acquire();
      start_times.push_back(s.now());
      s.delay(10_us);
      r.release();
    });
  }
  s.run();
  ASSERT_EQ(start_times.size(), 3u);
  EXPECT_EQ(start_times[0], SimTime::zero());
  EXPECT_EQ(start_times[1], 10_us);
  EXPECT_EQ(start_times[2], 20_us);
}

TEST(ResourceTest, MultiServerParallelism) {
  Simulation s;
  Resource r(&s, 2);  // e.g. the dual-CPU nodes in the paper's cluster
  std::vector<SimTime> done_times;
  for (int i = 0; i < 4; ++i) {
    s.spawn("p" + std::to_string(i), [&] {
      r.use(10_us);
      done_times.push_back(s.now());
    });
  }
  s.run();
  ASSERT_EQ(done_times.size(), 4u);
  EXPECT_EQ(done_times[0], 10_us);
  EXPECT_EQ(done_times[1], 10_us);
  EXPECT_EQ(done_times[2], 20_us);
  EXPECT_EQ(done_times[3], 20_us);
}

TEST(ResourceTest, FifoHandoffOrder) {
  Simulation s;
  Resource r(&s, 1);
  std::vector<int> order;
  s.spawn("holder", [&] {
    r.acquire();
    s.delay(100_us);
    r.release();
  });
  for (int i = 0; i < 5; ++i) {
    s.spawn("w" + std::to_string(i), [&, i] {
      s.delay(SimTime::microseconds(i + 1));  // arrive in order 0..4
      r.acquire();
      order.push_back(i);
      s.delay(1_us);
      r.release();
    });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, DirectHandoffPreventsBargeIn) {
  // A unit released while someone waits must go to the waiter even if
  // another process tries to acquire at the same timestamp.
  Simulation s;
  Resource r(&s, 1);
  std::vector<std::string> order;
  s.spawn("holder", [&] {
    r.acquire();
    s.delay(10_us);
    r.release();
  });
  s.spawn("waiter", [&] {
    s.delay(1_us);
    r.acquire();
    order.push_back("waiter");
    r.release();
  });
  s.spawn("barger", [&] {
    s.delay(10_us);  // arrives exactly when holder releases
    r.acquire();
    order.push_back("barger");
    r.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "waiter");
}

/// Six users of one single-server resource arrive 1 us apart while a
/// holder keeps it for 100 us, then each occupies it for 10 us. With
/// `mixed`, every odd user is an event-driven callback (use(hold, then))
/// instead of a blocked process. Returns (user, finish time) in finishing
/// order plus the resource's busy integral.
std::pair<std::vector<std::pair<int, SimTime>>, std::int64_t> interleaved(
    bool mixed) {
  Simulation s;
  Resource r(&s, 1);
  std::vector<std::pair<int, SimTime>> done;
  s.spawn("holder", [&] { r.use(100_us); });
  for (int i = 0; i < 6; ++i) {
    const SimTime arrive = SimTime::microseconds(i + 1);
    if (mixed && i % 2 == 1) {
      s.schedule_at(arrive, [&, i] {
        r.use(10_us, [&, i] { done.emplace_back(i, s.now()); });
      });
    } else {
      s.spawn("w" + std::to_string(i), [&, i, arrive] {
        s.delay(arrive);
        r.use(10_us);
        done.emplace_back(i, s.now());
      });
    }
  }
  s.run();
  EXPECT_EQ(r.in_use(), 0);
  EXPECT_EQ(r.queue_length(), 0u);
  return {done, r.busy_ns()};
}

TEST(ResourceTest, CallbackAndBlockingWaitersShareOneFifo) {
  const auto blocking = interleaved(/*mixed=*/false);
  const auto mixed = interleaved(/*mixed=*/true);
  ASSERT_EQ(blocking.first.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto user = static_cast<int>(i);
    EXPECT_EQ(blocking.first[i].first, user);
    EXPECT_EQ(blocking.first[i].second, SimTime::microseconds(110 + 10 * user));
  }
  EXPECT_EQ(mixed.first, blocking.first);
  EXPECT_EQ(mixed.second, blocking.second);
  EXPECT_EQ(mixed.second, 160'000);
}

TEST(ResourceTest, CallbackAcquireRunsInlineWhenFree) {
  Simulation s;
  Resource r(&s, 1);
  bool first = false;
  bool second = false;
  s.schedule(SimTime::zero(), [&] {
    r.acquire([&] { first = true; });
    EXPECT_TRUE(first);  // free: granted at once, no event
    r.acquire([&] { second = true; });
    EXPECT_FALSE(second);  // queued behind the holder
    EXPECT_EQ(s.engine().pending(), 0u);
    r.release();  // hands the unit over through one event at now()
    EXPECT_EQ(s.engine().pending(), 1u);
    EXPECT_FALSE(second);
  });
  s.run();
  EXPECT_TRUE(second);
  EXPECT_EQ(r.in_use(), 1);
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(ResourceTest, TryAcquire) {
  Simulation s;
  Resource r(&s, 1);
  s.spawn("p", [&] {
    EXPECT_TRUE(r.try_acquire());
    EXPECT_FALSE(r.try_acquire());
    r.release();
    EXPECT_TRUE(r.try_acquire());
    r.release();
  });
  s.run();
}

TEST(ResourceTest, ReleaseWithoutHoldThrows) {
  Simulation s;
  Resource r(&s, 1);
  s.spawn("p", [&] { EXPECT_THROW(r.release(), std::logic_error); });
  s.run();
}

TEST(ResourceTest, InvalidCapacityThrows) {
  Simulation s;
  EXPECT_THROW(Resource(&s, 0), std::invalid_argument);
  EXPECT_THROW(Resource(&s, -2), std::invalid_argument);
}

TEST(ResourceTest, CountsReflectState) {
  Simulation s;
  Resource r(&s, 3);
  s.spawn("p", [&] {
    EXPECT_EQ(r.available(), 3);
    r.acquire();
    r.acquire();
    EXPECT_EQ(r.in_use(), 2);
    EXPECT_EQ(r.available(), 1);
    r.release();
    r.release();
    EXPECT_EQ(r.in_use(), 0);
  });
  s.run();
}

TEST(ResourceTest, UtilizationAccounting) {
  Simulation s;
  Resource r(&s, 1);
  s.spawn("p", [&] {
    r.use(50_us);   // busy 50us
    s.delay(50_us); // idle 50us
  });
  s.run();
  EXPECT_EQ(r.busy_ns(), 50'000);
  EXPECT_NEAR(r.utilization(SimTime::zero(), 100_us), 0.5, 1e-9);
}

TEST(ResourceTest, DuplexPortIndependentDirections) {
  Simulation s;
  DuplexPort port(&s, "nic0");
  std::vector<SimTime> done;
  s.spawn("sender", [&] {
    port.tx.use(10_us);
    done.push_back(s.now());
  });
  s.spawn("receiver", [&] {
    port.rx.use(10_us);
    done.push_back(s.now());
  });
  s.run();
  // Full duplex: both complete at 10us, not serialized.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 10_us);
  EXPECT_EQ(done[1], 10_us);
}

}  // namespace
}  // namespace sv::sim
