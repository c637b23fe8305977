#include "net/fabric.h"

#include <gtest/gtest.h>

#include <vector>

namespace sv::net {
namespace {

using namespace sv::literals;

struct Fixture {
  sim::Simulation s;
  Cluster cluster{&s, 4};
  CalibrationProfile prof = CalibrationProfile::socket_via();
};

TEST(FabricTest, DeliversMessageWithModelLatency) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  SimTime delivered_at;
  std::uint64_t got_bytes = 0;
  f.s.spawn("rx", [&] {
    auto m = pipe.recv();
    ASSERT_TRUE(m.has_value());
    got_bytes = m->bytes;
    delivered_at = f.s.now();
  });
  f.s.spawn("tx", [&] {
    Message m;
    m.bytes = 2048;
    pipe.send(m);
  });
  f.s.run();
  EXPECT_EQ(got_bytes, 2048u);
  // Uncontended fabric time should match the closed-form model exactly for
  // a single-segment message (no pipelining approximation error).
  EXPECT_EQ(delivered_at, pipe.model().one_way(2048));
}

TEST(FabricTest, MultiSegmentCloseToClosedForm) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  SimTime delivered_at;
  f.s.spawn("rx", [&] {
    pipe.recv();
    delivered_at = f.s.now();
  });
  f.s.spawn("tx", [&] {
    Message m;
    m.bytes = 64_KiB;
    pipe.send(m);
  });
  f.s.run();
  // The fabric pipelines frames whose size equals the SocketVIA segment, so
  // an uncontended large message matches the closed-form one_way exactly.
  EXPECT_EQ(delivered_at, pipe.model().one_way(64_KiB));
}

TEST(FabricTest, FifoOrderAndTimestamps) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  std::vector<std::uint64_t> tags;
  f.s.spawn("rx", [&] {
    for (int i = 0; i < 5; ++i) {
      auto m = pipe.recv();
      ASSERT_TRUE(m.has_value());
      tags.push_back(m->tag);
      EXPECT_EQ(m->seq, static_cast<std::uint64_t>(i));
      EXPECT_GT(m->delivered_at, m->sent_at);
    }
  });
  f.s.spawn("tx", [&] {
    for (std::uint64_t i = 0; i < 5; ++i) {
      Message m;
      m.bytes = 1024;
      m.tag = 100 + i;
      pipe.send(m);
    }
  });
  f.s.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
}

TEST(FabricTest, StreamingThroughputApproachesModelPeak) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  const int kMessages = 200;
  const std::uint64_t kBytes = 32_KiB;
  SimTime last_delivery;
  f.s.spawn("rx", [&] {
    for (int i = 0; i < kMessages; ++i) pipe.recv();
    last_delivery = f.s.now();
  });
  f.s.spawn("tx", [&] {
    for (int i = 0; i < kMessages; ++i) {
      Message m;
      m.bytes = kBytes;
      pipe.send(m);
    }
  });
  f.s.run();
  const double measured =
      throughput_mbps(kMessages * kBytes, last_delivery);
  const double predicted = pipe.model().stream_bandwidth_mbps(kBytes);
  EXPECT_NEAR(measured, predicted, predicted * 0.10);
}

TEST(FabricTest, WindowBlocksSender) {
  Fixture f;
  CalibrationProfile prof = f.prof;
  prof.window_bytes = 8192;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), prof, "p");
  SimTime tx_done;
  f.s.spawn("tx", [&] {
    for (int i = 0; i < 8; ++i) {
      Message m;
      m.bytes = 4096;
      pipe.send(m);
    }
    tx_done = f.s.now();
  });
  std::vector<SimTime> rx_times;
  f.s.spawn("rx", [&] {
    for (int i = 0; i < 8; ++i) {
      pipe.recv();
      rx_times.push_back(f.s.now());
    }
  });
  f.s.run();
  // With a 2-message window the sender must wait for deliveries: its last
  // send cannot complete before the 6th delivery.
  ASSERT_EQ(rx_times.size(), 8u);
  EXPECT_GE(tx_done, rx_times[5]);
}

TEST(FabricTest, MaxTimeoutWaitsForeverLikeTheBlockingCalls) {
  // send_for/recv_for(SimTime::max()) called at t > 0 must saturate to
  // "wait forever" (no overflow, no timer) and run exactly like send/recv.
  struct Run {
    SimTime tx_done;
    std::vector<SimTime> rx_times;
    std::uint64_t digest = 0;
  };
  auto run = [](bool timed) {
    Fixture f;
    CalibrationProfile prof = f.prof;
    prof.window_bytes = 8192;
    Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), prof, "p");
    Run out;
    f.s.spawn("tx", [&] {
      f.s.delay(5_us);
      for (int i = 0; i < 8; ++i) {
        Message m;
        m.bytes = 4096;
        if (timed) {
          EXPECT_TRUE(pipe.send_for(m, SimTime::max()).ok());
        } else {
          pipe.send(m);
        }
      }
      out.tx_done = f.s.now();
    });
    f.s.spawn("rx", [&] {
      f.s.delay(5_us);
      for (int i = 0; i < 8; ++i) {
        if (timed) {
          auto r = pipe.recv_for(SimTime::max());
          EXPECT_TRUE(r.ok() && r.value().has_value());
        } else {
          EXPECT_TRUE(pipe.recv().has_value());
        }
        out.rx_times.push_back(f.s.now());
      }
    });
    f.s.run();
    out.digest = f.s.engine().trace_digest();
    return out;
  };
  const Run blocking = run(false);
  const Run timed = run(true);
  ASSERT_EQ(timed.rx_times.size(), 8u);
  EXPECT_GE(timed.tx_done, timed.rx_times[5]);  // the window did block
  EXPECT_EQ(timed.tx_done, blocking.tx_done);
  EXPECT_EQ(timed.rx_times, blocking.rx_times);
  EXPECT_EQ(timed.digest, blocking.digest);
}

TEST(FabricTest, OversizedMessageAdmittedAlone) {
  Fixture f;
  CalibrationProfile prof = f.prof;
  prof.window_bytes = 1024;  // smaller than the message
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), prof, "p");
  bool received = false;
  f.s.spawn("rx", [&] {
    auto m = pipe.recv();
    received = m.has_value() && m->bytes == 100'000;
  });
  f.s.spawn("tx", [&] {
    Message m;
    m.bytes = 100'000;
    pipe.send(m);  // must not deadlock
  });
  f.s.run();
  EXPECT_TRUE(received);
}

TEST(FabricTest, CloseDeliversEofAfterData) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  std::vector<std::uint64_t> got;
  bool eof = false;
  f.s.spawn("rx", [&] {
    while (auto m = pipe.recv()) got.push_back(m->tag);
    eof = true;
  });
  f.s.spawn("tx", [&] {
    for (std::uint64_t i = 0; i < 3; ++i) {
      Message m;
      m.bytes = 512;
      m.tag = i;
      pipe.send(m);
    }
    pipe.close();
  });
  f.s.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_TRUE(eof);
}

TEST(FabricTest, SendAfterCloseThrows) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  f.s.spawn("tx", [&] {
    pipe.close();
    Message m;
    m.bytes = 1;
    EXPECT_THROW(pipe.send(m), std::logic_error);
  });
  f.s.run();
}

TEST(FabricTest, SharedReceiverContention) {
  // Two pipes into the same destination share link_in/rx_proto: aggregate
  // delivery takes roughly twice as long as a single stream.
  Fixture f;
  Pipe pa(&f.s, &f.cluster.node(0), &f.cluster.node(2), f.prof, "a");
  Pipe pb(&f.s, &f.cluster.node(1), &f.cluster.node(2), f.prof, "b");
  const int kMessages = 100;
  const std::uint64_t kBytes = 32_KiB;
  SimTime done_a, done_b;
  f.s.spawn("txa", [&] {
    for (int i = 0; i < kMessages; ++i) pa.send(Message{.bytes = kBytes});
  });
  f.s.spawn("txb", [&] {
    for (int i = 0; i < kMessages; ++i) pb.send(Message{.bytes = kBytes});
  });
  f.s.spawn("rxa", [&] {
    for (int i = 0; i < kMessages; ++i) pa.recv();
    done_a = f.s.now();
  });
  f.s.spawn("rxb", [&] {
    for (int i = 0; i < kMessages; ++i) pb.recv();
    done_b = f.s.now();
  });
  f.s.run();
  const SimTime single_stream_estimate =
      pa.model().stream_cycle(kBytes) * kMessages;
  const SimTime slower = std::max(done_a, done_b);
  EXPECT_GT(slower.ns(), (single_stream_estimate * 18 / 10).ns());
  EXPECT_LT(slower.ns(), (single_stream_estimate * 24 / 10).ns());
}

TEST(FabricTest, PayloadPassesThroughUntouched) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  auto storage = std::make_shared<std::vector<std::byte>>(16);
  (*storage)[0] = std::byte{0xAB};
  const mem::Payload payload = mem::Payload::wrap(storage);
  bool ok = false;
  f.s.spawn("rx", [&] {
    auto m = pipe.recv();
    ok = m.has_value() && m->payload.materialized() &&
         m->payload.read_byte(0) == std::byte{0xAB} &&
         // Shared by reference, not copied: same storage refcount.
         m->payload.span_count() == 1;
  });
  f.s.spawn("tx", [&] {
    Message m;
    m.bytes = 16;
    m.payload = payload;
    pipe.send(m);
  });
  f.s.run();
  EXPECT_TRUE(ok);
}

TEST(FabricTest, CountersTrackTraffic) {
  Fixture f;
  Pipe pipe(&f.s, &f.cluster.node(0), &f.cluster.node(1), f.prof, "p");
  f.s.spawn("rx", [&] {
    pipe.recv();
    pipe.recv();
  });
  f.s.spawn("tx", [&] {
    pipe.send(Message{.bytes = 100});
    pipe.send(Message{.bytes = 200});
  });
  f.s.run();
  EXPECT_EQ(pipe.messages_sent(), 2u);
  EXPECT_EQ(pipe.bytes_sent(), 300u);
}

}  // namespace
}  // namespace sv::net
