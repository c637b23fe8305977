#include "tcpstack/tcp.h"

#include <gtest/gtest.h>

namespace sv::tcpstack {
namespace {

using namespace sv::literals;

struct Fixture {
  sim::Simulation s;
  net::Cluster cluster{&s, 2};
  TcpStack stack0{&s, &cluster.node(0)};
  TcpStack stack1{&s, &cluster.node(1)};
};

TEST(TcpTest, ConnectHandshakeCostsTime) {
  Fixture f;
  SimTime t;
  f.s.spawn("client", [&] {
    TcpStack::connect(f.stack0, f.stack1);
    t = f.s.now();
  });
  f.s.run();
  EXPECT_GT(t, 50_us);   // ~1.5 RTT of ~32 us fixed path each way
  EXPECT_LT(t, 300_us);
}

TEST(TcpTest, BytesDeliveredEndToEnd) {
  Fixture f;
  std::uint64_t got = 0;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    f.s.spawn("rx", [&, srv] { got = srv->recv_exact(10'000); });
    c->send(10'000);
    c->close();
  });
  f.s.run();
  EXPECT_EQ(got, 10'000u);
}

TEST(TcpTest, SegmentationAtMss) {
  Fixture f;
  std::shared_ptr<TcpConnection> client, server;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    client = c;
    server = srv;
    f.s.spawn("rx", [&, srv] { srv->recv_exact(14'600); });
    c->send(14'600);  // exactly 10 MSS
  });
  f.s.run();
  EXPECT_EQ(client->segments_sent(), 10u);
  EXPECT_EQ(server->bytes_received(), 14'600u);
}

TEST(TcpTest, SmallMessageLatencyMatchesCalibration) {
  Fixture f;
  SimTime delivered;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    const SimTime start = f.s.now();
    f.s.spawn("rx", [&, srv, start] {
      srv->recv_exact(4);
      delivered = f.s.now() - start;
    });
    c->send(4);
  });
  f.s.run();
  // Paper: ~47.5 us one-way for small messages over kernel TCP.
  EXPECT_NEAR(delivered.us(), 47.5, 4.0);
}

TEST(TcpTest, StreamingBandwidthNearCalibratedPeak) {
  Fixture f;
  const std::uint64_t kTotal = 4_MiB;
  SimTime elapsed;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    const SimTime start = f.s.now();
    f.s.spawn("rx", [&, srv, start] {
      srv->recv_exact(kTotal);
      elapsed = f.s.now() - start;
    });
    for (int i = 0; i < 64; ++i) c->send(kTotal / 64);
  });
  f.s.run();
  const double mbps = throughput_mbps(kTotal, elapsed);
  EXPECT_NEAR(mbps, 510.0, 30.0);  // paper's TCP peak
}

TEST(TcpTest, DelayedAckCoalesces) {
  Fixture f;
  std::shared_ptr<TcpConnection> client, server;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    client = c;
    server = srv;
    f.s.spawn("rx", [&, srv] { srv->recv_exact(14'600); });
    c->send(14'600);  // 10 segments
  });
  f.s.run();
  // With ack-every-2-segments, 10 segments need ~5 ACKs, not 10.
  EXPECT_LE(server->acks_sent(), 6u);
  EXPECT_GE(server->acks_sent(), 5u);
}

TEST(TcpTest, DelayedAckTimerFlushesOddSegment) {
  Fixture f;
  std::shared_ptr<TcpConnection> client, server;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    client = c;
    server = srv;
    f.s.spawn("rx", [&, srv] { srv->recv_exact(100); });
    c->send(100);  // single segment -> delayed ACK path
  });
  f.s.run();
  EXPECT_EQ(server->acks_sent(), 1u);  // timer fired
}

TEST(TcpTest, NagleHoldsSmallSegmentUntilAck) {
  Fixture f;
  std::shared_ptr<TcpConnection> client, server;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    client = c;
    server = srv;
    f.s.spawn("rx", [&, srv] { srv->recv_exact(200); });
    c->send(100);
    c->send(100);  // queued while 1st is unacked; must coalesce, not race
  });
  f.s.run();
  // Nagle: the 2nd write must NOT become its own immediate segment; it is
  // held and sent after the first is ACKed (or merged).
  EXPECT_LE(client->segments_sent(), 2u);
  EXPECT_EQ(server->bytes_received(), 200u);
}

TEST(TcpTest, NoNagleSendsImmediately) {
  Fixture f;
  std::shared_ptr<TcpConnection> client, server;
  TcpOptions opt;
  opt.nagle = false;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1, opt);
    client = c;
    server = srv;
    f.s.spawn("rx", [&, srv] { srv->recv_exact(200); });
    c->send(100);
    c->send(100);
  });
  f.s.run();
  EXPECT_EQ(server->bytes_received(), 200u);
}

TEST(TcpTest, SendBufferBackpressure) {
  Fixture f;
  TcpOptions opt;
  opt.send_buffer = 8 * 1024;
  opt.recv_buffer = 8 * 1024;
  SimTime first_sends_done, all_sends_done;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1, opt);
    f.s.spawn("rx", [&, srv] {
      f.s.delay(50_ms);  // lazy reader forces the window shut
      srv->recv_exact(64 * 1024);
    });
    c->send(8 * 1024);
    first_sends_done = f.s.now();
    for (int i = 0; i < 7; ++i) c->send(8 * 1024);
    all_sends_done = f.s.now();
  });
  f.s.run();
  // Later sends must have blocked until the reader started draining.
  EXPECT_GE(all_sends_done, 50_ms);
  EXPECT_LT(first_sends_done, 1_ms);
}

TEST(TcpTest, MaxTimeoutSendAndRecvWaitForever) {
  // send_for/recv_exact_for(SimTime::max()) at t > 0 saturate to "wait
  // forever": the sender blocks on the full socket buffer and the reader
  // on an empty one until data flows, with no overflow and no timeout.
  Fixture f;
  TcpOptions opt;
  opt.send_buffer = 8 * 1024;
  opt.recv_buffer = 8 * 1024;
  SimTime sends_done;
  bool send_ok = false;
  std::uint64_t got = 0;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1, opt);
    f.s.spawn("rx", [&, srv] {
      auto first = srv->recv_exact_for(8 * 1024, SimTime::max());
      f.s.delay(50_ms);  // lazy reader forces the window shut
      auto rest = srv->recv_exact_payload_for(56 * 1024, SimTime::max());
      if (first.ok() && rest.ok()) got = first.value() + rest.value().size();
    });
    f.s.delay(5_us);
    send_ok = c->send_for(64 * 1024, SimTime::max()).ok();
    sends_done = f.s.now();
  });
  f.s.run();
  EXPECT_TRUE(send_ok);
  EXPECT_EQ(got, 64u * 1024);
  EXPECT_GE(sends_done, 50_ms);
}

TEST(TcpTest, CloseDeliversEofAfterData) {
  Fixture f;
  std::uint64_t got = 0;
  std::uint64_t eof_read = 99;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    f.s.spawn("rx", [&, srv] {
      got = srv->recv_exact(5000);
      eof_read = srv->recv(100);  // must be 0 (clean EOF)
    });
    c->send(5000);
    c->close();
  });
  f.s.run();
  EXPECT_EQ(got, 5000u);
  EXPECT_EQ(eof_read, 0u);
}

TEST(TcpTest, SendAfterCloseThrows) {
  Fixture f;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    c->close();
    EXPECT_THROW(c->send(10), std::logic_error);
  });
  f.s.run();
}

TEST(TcpTest, RecvPartialReturnsAvailable) {
  Fixture f;
  std::uint64_t first = 0;
  f.s.spawn("app", [&] {
    auto [c, srv] = TcpStack::connect(f.stack0, f.stack1);
    f.s.spawn("rx", [&, srv] {
      first = srv->recv(1'000'000);  // asks for more than will arrive
    });
    c->send(500);
  });
  f.s.run();
  EXPECT_GT(first, 0u);
  EXPECT_LE(first, 500u);
}

TEST(TcpTest, TwoConnectionsShareNodeResources) {
  // Two parallel TCP streams into one node should take roughly twice as
  // long as one (receiver protocol path is the bottleneck and is shared).
  Fixture f;
  const std::uint64_t kTotal = 1_MiB;
  SimTime one_stream, two_streams;
  {
    sim::Simulation s;
    net::Cluster cl(&s, 3);
    TcpStack a(&s, &cl.node(0)), b(&s, &cl.node(1)), dst(&s, &cl.node(2));
    SimTime done;
    s.spawn("app", [&] {
      auto [c, srv] = TcpStack::connect(a, dst);
      const SimTime start = s.now();
      s.spawn("rx", [&, srv, start] {
        srv->recv_exact(kTotal);
        done = s.now() - start;
      });
      for (int i = 0; i < 32; ++i) c->send(kTotal / 32);
    });
    s.run();
    one_stream = done;
  }
  {
    sim::Simulation s;
    net::Cluster cl(&s, 3);
    TcpStack a(&s, &cl.node(0)), b(&s, &cl.node(1)), dst(&s, &cl.node(2));
    SimTime done0, done1;
    s.spawn("app0", [&] {
      auto [c, srv] = TcpStack::connect(a, dst);
      const SimTime start = s.now();
      s.spawn("rx0", [&, srv, start] {
        srv->recv_exact(kTotal);
        done0 = s.now() - start;
      });
      for (int i = 0; i < 32; ++i) c->send(kTotal / 32);
    });
    s.spawn("app1", [&] {
      auto [c, srv] = TcpStack::connect(b, dst);
      const SimTime start = s.now();
      s.spawn("rx1", [&, srv, start] {
        srv->recv_exact(kTotal);
        done1 = s.now() - start;
      });
      for (int i = 0; i < 32; ++i) c->send(kTotal / 32);
    });
    s.run();
    two_streams = std::max(done0, done1);
  }
  EXPECT_GT(two_streams.ns(), one_stream.ns() * 17 / 10);
  EXPECT_LT(two_streams.ns(), one_stream.ns() * 25 / 10);
}

}  // namespace
}  // namespace sv::tcpstack
