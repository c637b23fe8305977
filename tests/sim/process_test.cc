#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"

namespace sv::sim {
namespace {

using namespace sv::literals;

// Recurses `depth` frames of at least 1 KiB each. Every frame's byte feeds
// the result, so the compiler can neither drop the frames nor turn the
// recursion into a loop.
[[gnu::noinline]] std::uint64_t burn_stack(std::uint64_t depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return 0;
  return burn_stack(depth - 1) + static_cast<unsigned char>(frame[0]);
}

TEST(ProcessTest, DelayAdvancesSimulatedTime) {
  Simulation s;
  SimTime observed = SimTime::zero();
  s.spawn("p", [&] {
    s.delay(10_us);
    observed = s.now();
  });
  s.run();
  EXPECT_EQ(observed, 10_us);
  EXPECT_EQ(s.now(), 10_us);
}

TEST(ProcessTest, SequentialDelaysAccumulate) {
  Simulation s;
  std::vector<SimTime> marks;
  s.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      s.delay(5_us);
      marks.push_back(s.now());
    }
  });
  s.run();
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], 5_us);
  EXPECT_EQ(marks[1], 10_us);
  EXPECT_EQ(marks[2], 15_us);
}

TEST(ProcessTest, ProcessesInterleaveDeterministically) {
  Simulation s;
  std::vector<std::string> order;
  s.spawn("a", [&] {
    s.delay(10_us);
    order.push_back("a@10");
    s.delay(20_us);
    order.push_back("a@30");
  });
  s.spawn("b", [&] {
    s.delay(15_us);
    order.push_back("b@15");
    s.delay(5_us);
    order.push_back("b@20");
  });
  s.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"a@10", "b@15", "b@20", "a@30"}));
}

TEST(ProcessTest, SameTimeResumptionFollowsScheduleOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.spawn("p" + std::to_string(i), [&s, &order, i] {
      s.delay(10_us);
      order.push_back(i);
    });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ProcessTest, SpawnFromInsideProcess) {
  Simulation s;
  std::vector<std::string> log;
  s.spawn("parent", [&] {
    s.delay(5_us);
    log.push_back("parent@5");
    s.spawn("child", [&] {
      s.delay(7_us);
      log.push_back("child@12");
    });
    s.delay(10_us);
    log.push_back("parent@15");
  });
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent@5", "child@12",
                                           "parent@15"}));
}

TEST(ProcessTest, BlockAndWake) {
  Simulation s;
  Process* sleeper = nullptr;
  SimTime woke_at = SimTime::zero();
  sleeper = &s.spawn("sleeper", [&] {
    s.block_current("test-block");
    woke_at = s.now();
  });
  s.spawn("waker", [&] {
    s.delay(42_us);
    s.wake(*sleeper);
  });
  s.run();
  EXPECT_EQ(woke_at, 42_us);
  EXPECT_TRUE(sleeper->finished());
}

TEST(ProcessTest, DoubleWakeIsHarmless) {
  Simulation s;
  Process* sleeper = nullptr;
  int wakes = 0;
  sleeper = &s.spawn("sleeper", [&] {
    s.block_current("x");
    ++wakes;
    s.delay(100_us);  // still blocked here when the stale wake would land
  });
  s.spawn("waker", [&] {
    s.delay(10_us);
    s.wake(*sleeper);
    s.wake(*sleeper);  // second wake must be a no-op
  });
  s.run();
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(s.now(), 110_us);
}

TEST(ProcessTest, ExceptionInProcessPropagatesToRun) {
  Simulation s;
  s.spawn("bad", [&] {
    s.delay(1_us);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(ProcessTest, DestructionUnwindsBlockedProcesses) {
  // A simulation destroyed while processes are blocked must unwind every
  // one of them without hanging (ProcessKilled unwind).
  bool cleanup_ran = false;
  {
    Simulation s;
    s.spawn("stuck", [&] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } g{&cleanup_ran};
      s.block_current("forever");
    });
    s.run();
    EXPECT_EQ(s.live_process_count(), 1u);
  }
  EXPECT_TRUE(cleanup_ran);
}

TEST(ProcessTest, TeardownUnwindsTenThousandBlockedProcesses) {
  // Every body holds an RAII guard and a heap allocation while blocked
  // forever; ~Simulation must destroy each guard exactly once, and the
  // leak checker (ASan builds) sees any allocation the unwind skipped.
  constexpr int kProcs = 10'000;
  std::vector<int> destroyed(kProcs, 0);
  {
    Simulation s;
    for (int i = 0; i < kProcs; ++i) {
      s.spawn("stuck" + std::to_string(i), [&s, &destroyed, i] {
        struct Guard {
          int* count;
          ~Guard() { ++*count; }
        } g{&destroyed[static_cast<std::size_t>(i)]};
        const auto held = std::make_unique<std::string>(64, 'x');
        s.block_current("forever");
      });
    }
    s.run();
    EXPECT_EQ(s.live_process_count(), static_cast<std::size_t>(kProcs));
    EXPECT_EQ(std::count(destroyed.begin(), destroyed.end(), 0), kProcs);
  }
  EXPECT_EQ(std::count(destroyed.begin(), destroyed.end(), 1), kProcs);
}

TEST(ProcessTest, DeepRecursionWithinTheStackBudgetRuns) {
  Simulation s;
  std::uint64_t sum = 0;
  s.spawn("deep", [&] {
    // Half the stack in 1 KiB frames, then an ordinary block and resume.
    sum = burn_stack(Process::kStackBytes / 2 / 1024);
    s.delay(1_us);
  });
  s.run();
  EXPECT_GT(sum, 0u);
}

// Overflows one process's stack by half its size again, in 1 KiB frames.
// The neighbour's stack is mapped next, which mmap usually places right
// below the deep process's guard page: without the guard the overflow
// would land in the neighbour's stack and go unnoticed.
void overflow_a_process_stack() {
  Simulation s;
  s.spawn("deep",
          [] { (void)burn_stack(3 * Process::kStackBytes / 2 / 1024); });
  s.spawn("neighbour", [&] { s.block_current("forever"); });
  s.run();
}

TEST(ProcessDeathTest, StackOverflowDiesOnTheGuardPage) {
  // The write past the stack's low end must fault on the guard page rather
  // than land in the neighbour's frames.
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(overflow_a_process_stack(), "stack-overflow");
#else
  EXPECT_EXIT(overflow_a_process_stack(), testing::KilledBySignal(SIGSEGV),
              "");
#endif
}

TEST(ProcessTest, BlockingInsideACatchHandlerIsCaughtInDebug) {
#if !defined(NDEBUG) || defined(SV_ENABLE_DCHECKS)
  // Caught-exception state is per OS thread, which every process shares.
  Simulation s;
  s.spawn("catcher", [&] {
    try {
      throw std::runtime_error("handled");
    } catch (const std::runtime_error&) {
      s.delay(1_us);
    }
  });
  EXPECT_THROW(s.run(), CheckFailure);
#else
  GTEST_SKIP() << "SV_DCHECK compiled out";
#endif
}

TEST(ProcessTest, DestructionUnwindsNeverStartedProcesses) {
  // Spawned but run() never called: destructor must still not hang.
  Simulation s;
  s.spawn("never-started", [&] { s.delay(1_s); });
}

TEST(ProcessTest, BlockedProcessNamesDiagnostic) {
  Simulation s;
  s.spawn("waiter", [&] { s.block_current("waiting-for-godot"); });
  s.run();
  const auto names = s.blocked_process_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("waiter"), std::string::npos);
  EXPECT_NE(names[0].find("waiting-for-godot"), std::string::npos);
}

TEST(ProcessTest, DelayOutsideProcessThrows) {
  Simulation s;
  EXPECT_THROW(s.delay(1_us), std::logic_error);
  EXPECT_THROW(s.block_current("x"), std::logic_error);
}

TEST(ProcessTest, NegativeDelayThrows) {
  Simulation s;
  s.spawn("p", [&] {
    EXPECT_THROW(s.delay(SimTime(-1)), std::invalid_argument);
  });
  s.run();
}

TEST(ProcessTest, ZeroDelayYieldsButStaysAtSameTime) {
  Simulation s;
  std::vector<int> order;
  s.spawn("a", [&] {
    order.push_back(1);
    s.delay(SimTime::zero());
    order.push_back(3);
  });
  s.spawn("b", [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(ProcessTest, ManyProcessesScale) {
  Simulation s;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    s.spawn("p" + std::to_string(i), [&s, &done, i] {
      s.delay(SimTime::microseconds(i % 17));
      ++done;
    });
  }
  s.run();
  EXPECT_EQ(done, 200);
}

TEST(ProcessTest, RunForAdvancesWindow) {
  Simulation s;
  int ticks = 0;
  s.spawn("ticker", [&] {
    for (int i = 0; i < 100; ++i) {
      s.delay(10_us);
      ++ticks;
    }
  });
  s.run_for(35_us);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.now(), 35_us);
  s.run_for(30_us);
  EXPECT_EQ(ticks, 6);
}

}  // namespace
}  // namespace sv::sim
