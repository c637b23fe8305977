// Lifetime contracts of the event-driven stages (DESIGN.md §5): the fast
// fabric's wire and protocol stages, SendMux's per-lane sink, and the
// detailed transports' engines (tcpstack, VIA, the SocketVIA and RDMA
// demux) run as engine handlers, owned only by the events, resource
// waiters and completion callbacks that will run them. A Pipe or SendMux
// handle may be destroyed mid-flight, and a Simulation may be destroyed
// with stage work still pending; the ASan + UBSan job runs this suite with
// leak detection on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "net/fabric.h"
#include "sockets/factory.h"
#include "sockets/mux.h"
#include "sockets/rdma_socket.h"

namespace sv::sockets {
namespace {

using namespace sv::literals;

/// 16 hosts behind a k=4 fat-tree (so frames queue on fabric links), with
/// 30% frame loss and up to 20 us of per-frame jitter on every link.
std::unique_ptr<net::Cluster> faulty_fabric(sim::Simulation* s) {
  auto cluster = std::make_unique<net::Cluster>(
      s, 16, net::NodeConfig{}, net::TopologySpec::fat_tree(4));
  net::FaultPlan plan;
  plan.all_links.loss = 0.3;
  plan.all_links.max_jitter = 20_us;
  cluster->install_faults(plan, 11);
  return cluster;
}

TEST(StageLifetimeTest, PipeDestroyedMidFlightDeliversEveryAdmittedMessage) {
  sim::Simulation s;
  auto cluster = faulty_fabric(&s);
  const auto& reg = s.obs().registry;
  std::vector<std::uint64_t> tags;
  std::vector<SimTime> stamps;
  auto with_callback = std::make_unique<net::Pipe>(
      &s, &cluster->node(0), &cluster->node(9),
      net::CalibrationProfile::socket_via(), "callback",
      [&](net::Message m) {
        EXPECT_EQ(m.delivered_at, s.now());
        tags.push_back(m.tag);
        stamps.push_back(m.delivered_at);
      });
  auto with_queue = std::make_unique<net::Pipe>(
      &s, &cluster->node(1), &cluster->node(12),
      net::CalibrationProfile::kernel_tcp(), "queue");
  constexpr std::uint64_t kMessages = 12;
  std::size_t callbacks_at_destroy = kMessages;
  std::uint64_t received_at_destroy = kMessages;
  s.spawn("tx", [&] {
    // Each pipe is destroyed as soon as send() has admitted its last
    // frame, with the tail of the stream still on the wire.
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      with_queue->send(net::Message{.bytes = 16_KiB, .tag = i});
    }
    received_at_destroy = reg.counter_value("fabric.messages_received");
    with_queue.reset();
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      with_callback->send(net::Message{.bytes = 16_KiB, .tag = i});
    }
    callbacks_at_destroy = tags.size();
    with_callback.reset();
  });
  s.run();

  EXPECT_LT(callbacks_at_destroy, kMessages);
  EXPECT_LT(received_at_destroy, kMessages);
  std::vector<std::uint64_t> want(kMessages);
  for (std::uint64_t i = 0; i < kMessages; ++i) want[i] = i;
  EXPECT_EQ(tags, want);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LE(stamps[i - 1], stamps[i]);
  }
  // The queue-form pipe's messages cross too, though nobody can recv().
  EXPECT_EQ(reg.counter_value("fabric.messages_received"), 2 * kMessages);
  EXPECT_GT(reg.counter_value("fabric.frames_retransmitted"), 0u);
  EXPECT_EQ(s.engine().pending(), 0u);
}

TEST(StageLifetimeTest, SendMuxDestroyedWithAggregatesInFlightDeliversAll) {
  sim::Simulation s;
  auto cluster = faulty_fabric(&s);
  SendMuxConfig cfg;
  cfg.aggregate_max_msgs = 8;
  // Per destination: the enqueue times of delivered records, in order.
  std::vector<std::vector<SimTime>> got(16);
  std::uint64_t delivered = 0;
  auto mux = std::make_unique<SendMux>(
      &s, cluster.get(), /*node=*/0, cfg,
      [&](int dst, const MuxRecord& rec, SimTime) {
        got[static_cast<std::size_t>(dst)].push_back(rec.enqueued);
        ++delivered;
      });
  std::vector<std::uint64_t> conns;
  for (int dst : {3, 7, 9, 14}) conns.push_back(mux->open_connection(dst));

  std::uint64_t accepted = 0;
  std::uint64_t delivered_at_destroy = 0;
  std::uint64_t batches_at_destroy = 0;
  s.spawn("gen", [&] {
    for (std::size_t k = 0; k < 400; ++k) {
      if (mux->submit(conns[k % conns.size()], 2048)) ++accepted;
      if (k % 8 == 7) s.delay(2_us);
    }
    delivered_at_destroy = delivered;
    batches_at_destroy = mux->batches();
    mux.reset();
  });
  s.run();

  EXPECT_GT(batches_at_destroy, 0u);
  EXPECT_LT(delivered_at_destroy, accepted);
  EXPECT_EQ(delivered, accepted);
  for (const auto& lane : got) {
    for (std::size_t i = 1; i < lane.size(); ++i) {
      EXPECT_LE(lane[i - 1], lane[i]);
    }
  }
  EXPECT_EQ(s.live_process_count(), 0u);  // generator and sender both ended
}

/// Builds a busy fabric — a SendMux fanning out, plus a queue-form pipe
/// with a receiver blocked on it — and stops the run while stage events,
/// link waiters and blocked senders are all pending. Then tears it down
/// with the Simulation destroyed before (or after) the cluster whose
/// resources hold stage continuations.
void destroy_mid_run(bool simulation_first) {
  auto s = std::make_unique<sim::Simulation>();
  auto cluster = faulty_fabric(s.get());
  auto mux = std::make_unique<SendMux>(
      s.get(), cluster.get(), /*node=*/2, SendMuxConfig{},
      [](int, const MuxRecord&, SimTime) {});
  std::vector<std::uint64_t> conns;
  for (int dst = 3; dst < 16; ++dst) conns.push_back(mux->open_connection(dst));
  auto pipe = std::make_unique<net::Pipe>(
      s.get(), &cluster->node(4), &cluster->node(13),
      net::CalibrationProfile::kernel_tcp(), "p");
  s->spawn("rx", [&pipe] {
    while (pipe->recv()) {
    }
  });
  s->spawn("tx", [&pipe] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      pipe->send(net::Message{.bytes = 32_KiB, .tag = i});
    }
  });
  s->spawn("gen", [&] {
    for (std::size_t k = 0; k < 2000; ++k) {
      (void)mux->submit(conns[k % conns.size()], 4096);
    }
  });
  s->run_until(200_us);
  ASSERT_GT(s->engine().pending(), 0u);
  ASSERT_GT(s->live_process_count(), 0u);

  mux.reset();
  pipe.reset();
  if (simulation_first) {
    s.reset();
    cluster.reset();
  } else {
    cluster.reset();
    s.reset();
  }
}

TEST(StageLifetimeTest, SimulationDestroyedBeforeClusterWithStagesPending) {
  destroy_mid_run(/*simulation_first=*/true);
}

TEST(StageLifetimeTest, SimulationDestroyedAfterClusterWithStagesPending) {
  destroy_mid_run(/*simulation_first=*/false);
}

enum class Detailed { kTcp, kSocketVia, kRdma };

SocketPair connect_detailed(SocketFactory& factory, Detailed kind) {
  switch (kind) {
    case Detailed::kTcp:
      return factory.connect(0, 1, net::Transport::kKernelTcp);
    case Detailed::kSocketVia:
      return factory.connect(0, 1, net::Transport::kSocketVia);
    case Detailed::kRdma:
      return RdmaPushSocket::make_pair(factory.via_nic(0),
                                       factory.via_nic(1));
  }
  return {};
}

/// The detailed engines are handlers, not processes: connecting a pair
/// and moving 64 KiB across it spawns nothing beyond the test's own
/// receiver, and no process is left blocked afterwards.
void expect_no_spawns(Detailed kind) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  std::uint64_t before = 0;
  std::uint64_t after_connect = 0;
  std::uint64_t after_exchange = 0;
  std::uint64_t received = 0;
  s.spawn("app", [&] {
    // The stacks and NICs come into being here too, lazily.
    before = s.processes_spawned();
    auto [a, b] = connect_detailed(factory, kind);
    after_connect = s.processes_spawned();
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) received += m->bytes;
      after_exchange = s.processes_spawned();
    });
    a->send(net::Message{.bytes = 64_KiB});
    a->close_send();
  });
  s.run();
  EXPECT_EQ(after_connect, before);
  EXPECT_EQ(after_exchange, before + 1);  // the receiver above
  EXPECT_EQ(received, 64_KiB);
  EXPECT_EQ(s.live_process_count(), 0u);
}

TEST(DetailedHandlerTest, TcpPairSpawnsNoProcess) {
  expect_no_spawns(Detailed::kTcp);
}

TEST(DetailedHandlerTest, SocketViaPairSpawnsNoProcess) {
  expect_no_spawns(Detailed::kSocketVia);
}

TEST(DetailedHandlerTest, RdmaPairSpawnsNoProcess) {
  expect_no_spawns(Detailed::kRdma);
}

/// Streams 64 KiB messages and stops the run mid-flight, then destroys
/// the objects in the order a scoped run does (factory, cluster,
/// Simulation, the reverse of construction). Sockets live on the
/// processes' stacks, so they go last, while the Simulation unwinds them.
/// `loss` > 0 leaves TCP's retransmission and delayed-ACK timers armed;
/// with `slow_reader` the receiver sleeps, so SocketVIA and RDMA senders
/// wait on credits and TCP on a full window.
void destroy_stream_mid_flight(Detailed kind, double loss, bool slow_reader) {
  auto s = std::make_unique<sim::Simulation>();
  auto cluster = std::make_unique<net::Cluster>(s.get(), 2);
  if (loss > 0) {
    cluster->install_faults(net::FaultPlan::uniform_loss(loss), 5);
  }
  auto factory =
      std::make_unique<SocketFactory>(s.get(), cluster.get(),
                                      Fidelity::kDetailed);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  s->spawn("app", [&] {
    auto [a, b] = connect_detailed(*factory, kind);
    s->spawn("rx", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) {
        ++received;
        if (slow_reader) s->delay(1_ms);
      }
    });
    for (int i = 0; i < 64; ++i) {
      a->send(net::Message{.bytes = 64_KiB});
      ++sent;
    }
    a->close_send();
  });
  s->run_until(3_ms);
  ASSERT_GT(sent, received);  // messages are in flight
  ASSERT_GT(s->engine().pending(), 0u);
  ASSERT_GT(s->live_process_count(), 0u);
  if (loss > 0) {
    ASSERT_GT(s->obs().registry.sum_counters(
                  "tcpstack.segments_retransmitted{"),
              0u);
  }
  factory.reset();
  cluster.reset();
  s.reset();
}

TEST(StageLifetimeTest, LossyTcpStreamDestroyedWithTimersArmed) {
  destroy_stream_mid_flight(Detailed::kTcp, 0.05, /*slow_reader=*/false);
}

TEST(StageLifetimeTest, TcpStreamDestroyedWithTheWindowClosed) {
  destroy_stream_mid_flight(Detailed::kTcp, 0.0, /*slow_reader=*/true);
}

TEST(StageLifetimeTest, SocketViaStreamDestroyedWhileWaitingOnCredits) {
  destroy_stream_mid_flight(Detailed::kSocketVia, 0.0, /*slow_reader=*/true);
}

TEST(StageLifetimeTest, RdmaStreamDestroyedWhileWaitingOnSlots) {
  destroy_stream_mid_flight(Detailed::kRdma, 0.0, /*slow_reader=*/true);
}

}  // namespace
}  // namespace sv::sockets
