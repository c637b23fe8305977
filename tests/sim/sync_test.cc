#include "sim/sync.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sv::sim {
namespace {

using namespace sv::literals;

TEST(WaitQueueTest, NotifyOneWakesFifo) {
  Simulation s;
  WaitQueue q(&s);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    s.spawn("w" + std::to_string(i), [&, i] {
      q.wait();
      order.push_back(i);
    });
  }
  s.spawn("notifier", [&] {
    s.delay(10_us);
    q.notify_one();
    s.delay(10_us);
    q.notify_one();
    s.delay(10_us);
    q.notify_one();
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WaitQueueTest, NotifyAllWakesEveryone) {
  Simulation s;
  WaitQueue q(&s);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    s.spawn("w" + std::to_string(i), [&] {
      q.wait();
      ++woken;
    });
  }
  s.spawn("notifier", [&] {
    s.delay(1_us);
    q.notify_all();
  });
  s.run();
  EXPECT_EQ(woken, 5);
}

TEST(WaitQueueTest, NotifyOneOnEmptyReturnsFalse) {
  Simulation s;
  WaitQueue q(&s);
  s.spawn("p", [&] { EXPECT_FALSE(q.notify_one()); });
  s.run();
}

TEST(WaitQueueTest, WaitForTimesOut) {
  Simulation s;
  WaitQueue q(&s);
  bool notified = true;
  SimTime when;
  s.spawn("p", [&] {
    notified = q.wait_until(s.now() + 50_us);
    when = s.now();
  });
  s.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(when, 50_us);
  EXPECT_EQ(q.waiter_count(), 0u);
}

TEST(WaitQueueTest, WaitForNotifiedBeforeTimeout) {
  Simulation s;
  WaitQueue q(&s);
  bool notified = false;
  SimTime when;
  s.spawn("p", [&] {
    notified = q.wait_until(s.now() + 50_us);
    when = s.now();
  });
  s.spawn("n", [&] {
    s.delay(20_us);
    q.notify_one();
  });
  s.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(when, 20_us);
}

TEST(WaitQueueTest, NotifyCancelsTheTimerOfATimedWait) {
  Simulation s;
  WaitQueue q(&s);
  bool notified = false;
  std::size_t pending_after_notify = 1;
  s.spawn("p", [&] { notified = q.wait_until(s.now() + 1_s); });
  s.spawn("n", [&] {
    s.delay(5_us);
    q.notify_one();
    // Only the waiter's wake-up is left; its timer is gone.
    pending_after_notify = s.engine().pending() - 1;
  });
  s.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(pending_after_notify, 0u);
  EXPECT_EQ(s.engine().pending(), 0u);
  EXPECT_EQ(s.now(), 5_us);  // the 1 s deadline no longer holds run() open
  EXPECT_EQ(q.waiter_count(), 0u);
}

TEST(WaitQueueTest, DestroyedQueueStillTimesOutItsWaiter) {
  Simulation s;
  auto q = std::make_unique<WaitQueue>(&s);
  bool notified = true;
  SimTime when;
  s.spawn("p", [&] {
    notified = q->wait_until(s.now() + 10_us);
    when = s.now();
  });
  s.spawn("killer", [&] {
    s.delay(1_us);
    q.reset();
  });
  s.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(when, 10_us);
}

TEST(WaitQueueTest, TimedOutEntrySkippedByLaterNotify) {
  Simulation s;
  WaitQueue q(&s);
  std::vector<std::string> woken;
  s.spawn("timed", [&] {
    if (!q.wait_until(s.now() + 10_us)) woken.push_back("timed-timeout");
  });
  s.spawn("patient", [&] {
    q.wait();
    woken.push_back("patient");
  });
  s.spawn("n", [&] {
    s.delay(20_us);
    q.notify_one();  // must reach "patient", not the timed-out entry
  });
  s.run();
  EXPECT_EQ(woken,
            (std::vector<std::string>{"timed-timeout", "patient"}));
}

TEST(WaitQueueTest, WaitUntilPastDeadlineReturnsAtOnceWithoutAnEvent) {
  Simulation s;
  WaitQueue q(&s);
  bool at_now = true;
  bool before_now = true;
  std::uint64_t fired_before = 0;
  std::uint64_t fired_after = 1;
  SimTime when;
  s.spawn("p", [&] {
    s.delay(5_us);
    fired_before = s.events_fired();
    at_now = q.wait_until(s.now());
    before_now = q.wait_until(s.now() - 1_ns);
    fired_after = s.events_fired();
    when = s.now();
  });
  s.run();
  EXPECT_FALSE(at_now);
  EXPECT_FALSE(before_now);
  EXPECT_EQ(fired_after, fired_before);
  EXPECT_EQ(when, 5_us);
  EXPECT_EQ(q.waiter_count(), 0u);
}

TEST(WaitQueueTest, WaitUntilMaxSchedulesNoTimer) {
  Simulation s;
  WaitQueue q(&s);
  bool notified = false;
  std::size_t pending_while_blocked = 1;
  s.spawn("p", [&] { notified = q.wait_until(SimTime::max()); });
  s.spawn("n", [&] {
    s.delay(5_us);
    pending_while_blocked = s.engine().pending();
    q.notify_one();
  });
  s.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(pending_while_blocked, 0u);
  EXPECT_EQ(s.now(), 5_us);
}

TEST(DeadlineAfterTest, NonPositiveMeansForeverAndLargeTimeoutsSaturate) {
  EXPECT_EQ(deadline_after(5_us, SimTime::zero()), SimTime::max());
  EXPECT_EQ(deadline_after(5_us, SimTime::nanoseconds(-1)), SimTime::max());
  EXPECT_EQ(deadline_after(5_us, SimTime::max()), SimTime::max());
  EXPECT_EQ(deadline_after(5_us, SimTime::max() - 5_us), SimTime::max());
  EXPECT_EQ(deadline_after(5_us, SimTime::max() - 6_us),
            SimTime::max() - 1_us);
  EXPECT_EQ(deadline_after(5_us, 3_us), 8_us);
  EXPECT_EQ(deadline_after(SimTime::zero(), SimTime::max()), SimTime::max());
}

TEST(SemaphoreTest, AcquireReleaseCounts) {
  Simulation s;
  Semaphore sem(&s, 2);
  std::vector<SimTime> entry_times;
  for (int i = 0; i < 4; ++i) {
    s.spawn("p" + std::to_string(i), [&] {
      sem.acquire();
      entry_times.push_back(s.now());
      s.delay(10_us);
      sem.release();
    });
  }
  s.run();
  ASSERT_EQ(entry_times.size(), 4u);
  // Two enter immediately, two wait for the first pair to release.
  EXPECT_EQ(entry_times[0], SimTime::zero());
  EXPECT_EQ(entry_times[1], SimTime::zero());
  EXPECT_EQ(entry_times[2], 10_us);
  EXPECT_EQ(entry_times[3], 10_us);
}

TEST(SemaphoreTest, TryAcquire) {
  Simulation s;
  Semaphore sem(&s, 1);
  s.spawn("p", [&] {
    EXPECT_TRUE(sem.try_acquire());
    EXPECT_FALSE(sem.try_acquire());
    sem.release();
    EXPECT_TRUE(sem.try_acquire());
  });
  s.run();
}

TEST(ChannelTest, SendRecvTransfersValue) {
  Simulation s;
  Channel<int> ch(&s, 1);
  std::optional<int> got;
  s.spawn("rx", [&] { got = ch.recv(); });
  s.spawn("tx", [&] {
    s.delay(5_us);
    ch.send(99);
  });
  s.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 99);
}

TEST(ChannelTest, BoundedChannelBlocksSender) {
  Simulation s;
  Channel<int> ch(&s, 2);
  std::vector<SimTime> send_times;
  s.spawn("tx", [&] {
    for (int i = 0; i < 4; ++i) {
      ch.send(i);
      send_times.push_back(s.now());
    }
  });
  s.spawn("rx", [&] {
    s.delay(100_us);
    for (int i = 0; i < 4; ++i) {
      auto v = ch.recv();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);  // FIFO order
      s.delay(10_us);
    }
  });
  s.run();
  ASSERT_EQ(send_times.size(), 4u);
  EXPECT_EQ(send_times[0], SimTime::zero());
  EXPECT_EQ(send_times[1], SimTime::zero());
  EXPECT_EQ(send_times[2], 100_us);  // unblocked by first recv
  EXPECT_EQ(send_times[3], 110_us);
}

TEST(ChannelTest, UnboundedNeverBlocksSender) {
  Simulation s;
  Channel<int> ch(&s, 0);  // capacity 0 == unbounded
  s.spawn("tx", [&] {
    for (int i = 0; i < 1000; ++i) ch.send(i);
    EXPECT_EQ(s.now(), SimTime::zero());  // never blocked
  });
  s.run();
  EXPECT_EQ(ch.size(), 1000u);
}

TEST(ChannelTest, CloseDrainsThenNullopt) {
  Simulation s;
  Channel<int> ch(&s, 0);
  std::vector<int> got;
  bool saw_end = false;
  s.spawn("rx", [&] {
    while (auto v = ch.recv()) got.push_back(*v);
    saw_end = true;
  });
  s.spawn("tx", [&] {
    ch.send(1);
    ch.send(2);
    s.delay(1_us);
    ch.close();
  });
  s.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_end);
}

TEST(ChannelTest, SendAfterCloseThrows) {
  Simulation s;
  Channel<int> ch(&s, 0);
  s.spawn("p", [&] {
    ch.close();
    EXPECT_THROW(ch.send(1), std::logic_error);
    EXPECT_FALSE(ch.try_send(1));
  });
  s.run();
}

TEST(ChannelTest, TryRecvNonBlocking) {
  Simulation s;
  Channel<int> ch(&s, 0);
  s.spawn("p", [&] {
    EXPECT_FALSE(ch.try_recv().has_value());
    ch.send(5);
    auto v = ch.try_recv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 5);
  });
  s.run();
}

TEST(ChannelTest, MultipleConsumersEachGetOneItem) {
  Simulation s;
  Channel<int> ch(&s, 0);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    s.spawn("rx" + std::to_string(i), [&] {
      auto v = ch.recv();
      if (v) got.push_back(*v);
    });
  }
  s.spawn("tx", [&] {
    s.delay(1_us);
    ch.send(10);
    ch.send(20);
    ch.send(30);
  });
  s.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0] + got[1] + got[2], 60);
}

TEST(ChannelTest, MoveOnlyPayload) {
  Simulation s;
  Channel<std::unique_ptr<int>> ch(&s, 0);
  int result = 0;
  s.spawn("rx", [&] {
    auto v = ch.recv();
    ASSERT_TRUE(v.has_value());
    result = **v;
  });
  s.spawn("tx", [&] { ch.send(std::make_unique<int>(77)); });
  s.run();
  EXPECT_EQ(result, 77);
}

TEST(ChannelTest, RecvForMaxTimeoutWaitsForeverThenDelivers) {
  Simulation s;
  Channel<int> ch(&s, 0);
  std::optional<int> got;
  bool ok = false;
  SimTime when;
  s.spawn("consumer", [&] {
    s.delay(5_us);
    auto r = ch.recv_for(SimTime::max());
    ok = r.ok();
    if (ok) got = r.value();
    when = s.now();
  });
  s.spawn("producer", [&] {
    s.delay(100_us);
    ch.send(7);
  });
  s.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 7);
  EXPECT_EQ(when, 100_us);
}

TEST(ChannelTest, RecvForNegativeTimeoutWaitsForever) {
  Simulation s;
  Channel<int> ch(&s, 0);
  std::optional<int> got;
  s.spawn("consumer", [&] {
    s.delay(5_us);
    auto r = ch.recv_for(SimTime::nanoseconds(-1));
    if (r.ok()) got = r.value();
  });
  s.spawn("producer", [&] {
    s.delay(100_us);
    ch.send(9);
  });
  s.run();
  EXPECT_EQ(got, 9);
  EXPECT_EQ(s.now(), 100_us);
}

}  // namespace
}  // namespace sv::sim
