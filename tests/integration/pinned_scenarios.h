// The seeded scenarios behind tests/integration/digest_pins.txt, shared by
// the two tests that pin them:
//
//   digest_pins_test         (events_fired, trace_digest): the exact
//                            executed event schedule, on both event queues.
//   model_equivalence_test   the delivered-message timeline and the
//                            registry without sim.* keys: what the model
//                            computed, however many events it took.
//
// Each scenario is a scaled-down seeded run of a paper experiment (fig04
// ping-pong, fig08 paced updates, fig10 load balancing), of the fat-tree
// open loop, or of a detailed transport path the paper experiments do not
// reach (lossy TCP recovery, SocketVIA credit stalls, RDMA push sockets).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/openloop.h"
#include "harness/vizbench.h"
#include "net/cluster.h"
#include "obs/artifacts.h"
#include "sim/simulation.h"
#include "sockets/factory.h"
#include "sockets/rdma_socket.h"
#include "vizapp/loadbalance.h"

namespace sv::pinned {

using namespace sv::literals;

/// What one scenario run leaves behind. When a metrics path is given, the
/// run also writes its final registry JSON there.
struct ScenarioRun {
  std::uint64_t events = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t delivery_digest = 0;
  /// What a scenario promises to exercise, by name; model_equivalence_test
  /// fails any that reads 0 (a pin over a path that never ran pins
  /// nothing).
  std::map<std::string, std::uint64_t> exercised{};
};

/// Writes the registry JSON when `metrics_path` is non-empty.
inline void export_metrics(sim::Simulation& s,
                           const std::string& metrics_path) {
  obs::Artifacts artifacts;
  artifacts.metrics_path = metrics_path;
  obs::export_artifacts(s.obs(), artifacts);
}

/// Fig 4-style seeded ping-pong on the detailed protocol machinery.
inline ScenarioRun fig04_pingpong(sim::QueueKind kind, net::Transport tr,
                                  const std::string& metrics_path) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("pong", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) b->send(*m);
    });
    for (int i = 0; i < 20; ++i) {
      a->send(net::Message{.bytes = 4096});
      a->recv();
    }
    a->close_send();
  });
  s.run();
  export_metrics(s, metrics_path);
  return {s.events_fired(), s.engine().trace_digest(),
          s.obs().delivery_digest()};
}

/// Detailed kernel TCP streaming 64 KiB messages, Nagle and delayed ACK
/// on, over a link that drops 1% of segments and ACKs: every loss-recovery
/// path of the stack runs (RTO expiry with backoff, duplicate-ACK fast
/// retransmit, out-of-order reassembly), next to ACK coalescing.
inline ScenarioRun tcp_lossy_stream(sim::QueueKind kind,
                                    const std::string& metrics_path) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  cluster.install_faults(net::FaultPlan::uniform_loss(0.01), 23);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    for (int i = 0; i < 32; ++i) a->send(net::Message{.bytes = 64 * 1024});
    a->close_send();
  });
  s.run();
  export_metrics(s, metrics_path);
  const obs::Registry& reg = s.obs().registry;
  const auto total = [&reg](const std::string& family) {
    return reg.sum_counters(family + "{");
  };
  // One direction carries data, the other only ACKs, so every segment the
  // receiver did not answer with an ACK of its own was acknowledged
  // together with a later one: the delayed-ACK rule at work.
  const std::uint64_t segments = total("tcpstack.segments_sent");
  const std::uint64_t acks = total("tcpstack.acks_sent");
  return {s.events_fired(),
          s.engine().trace_digest(),
          s.obs().delivery_digest(),
          {{"rto_expirations", total("tcpstack.rto_expirations")},
           {"fast_retransmits", total("tcpstack.fast_retransmits")},
           {"ooo_segments_received", total("tcpstack.ooo_segments_received")},
           {"segments_acked_late", segments > acks ? segments - acks : 0}}};
}

/// Detailed SocketVIA streaming 64 KiB messages (four 16 KiB chunks each)
/// with the default 8 credits: the sender spends its credits in two
/// messages and then waits for credit updates, which return only after
/// chunks have crossed the wire.
inline ScenarioRun svia_credit_stall(sim::QueueKind kind,
                                     const std::string& metrics_path) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
  std::uint64_t stalled_sends = 0;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    // Posting a chunk costs microseconds and the NIC moves it
    // asynchronously, so a send that lasts a chunk's wire time (~165 us)
    // waited for credits.
    const SimTime one_chunk_on_the_wire = SimTime::microseconds(150);
    for (int i = 0; i < 12; ++i) {
      const SimTime t0 = s.now();
      a->send(net::Message{.bytes = 64 * 1024});
      if (s.now() - t0 >= one_chunk_on_the_wire) ++stalled_sends;
    }
    a->close_send();
  });
  s.run();
  export_metrics(s, metrics_path);
  return {s.events_fired(),
          s.engine().trace_digest(),
          s.obs().delivery_digest(),
          {{"stalled_sends", stalled_sends},
           {"credit_updates",
            s.obs().registry.sum_counters("via_sock.credit_updates{")}}};
}

/// Ping-pong over the RDMA push sockets: 20 KiB messages span two ring
/// slots, and slot credits flow back in batches.
inline ScenarioRun rdma_pingpong(sim::QueueKind kind,
                                 const std::string& metrics_path) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
  std::uint64_t round_trips = 0;
  s.spawn("app", [&] {
    auto [a, b] = sockets::RdmaPushSocket::make_pair(factory.via_nic(0),
                                                     factory.via_nic(1));
    s.spawn("pong", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) b->send(*m);
    });
    for (int i = 0; i < 20; ++i) {
      a->send(net::Message{.bytes = 20 * 1024});
      if (a->recv()) ++round_trips;
    }
    a->close_send();
  });
  s.run();
  export_metrics(s, metrics_path);
  return {s.events_fired(),
          s.engine().trace_digest(),
          s.obs().delivery_digest(),
          {{"round_trips", round_trips}}};
}

/// Fig 8-style paced complete updates with partial-update probes.
inline ScenarioRun fig08_paced(sim::QueueKind kind, net::Transport tr,
                               const std::string& metrics_path) {
  harness::VizWorkloadConfig cfg;
  cfg.transport = tr;
  cfg.image_bytes = 2_MiB;
  cfg.block_bytes = 128_KiB;
  cfg.cluster_nodes = 16;
  cfg.seed = 42;
  cfg.queue_kind = kind;
  cfg.obs.metrics_path = metrics_path;
  const auto r = harness::run_paced_updates(cfg, 4.0, 4, 1);
  return {r.events_fired, r.trace_digest, r.delivery_digest};
}

/// Fig 10-style round-robin load balancing with a statically slow worker.
inline ScenarioRun fig10_balance(sim::QueueKind kind, net::Transport tr,
                                 std::uint64_t block_bytes,
                                 const std::string& metrics_path) {
  viz::LoadBalanceConfig cfg;
  cfg.transport = tr;
  cfg.total_bytes = 1_MiB;
  cfg.block_bytes = block_bytes;
  cfg.policy = dc::SchedPolicy::kRoundRobin;
  cfg.slow_worker = 1;
  cfg.slow_factor = 4;
  cfg.compute = PerByteCost::nanos_per_byte(18);
  cfg.seed = 7;
  cfg.queue_kind = kind;
  cfg.obs.metrics_path = metrics_path;
  const auto r = viz::run_load_balance(cfg);
  return {r.events_fired, r.trace_digest, r.delivery_digest};
}

/// Scale scenario: a 128-node open-loop run over a k=8 fat-tree with
/// faults, churn, and incast redirection all active (DESIGN.md §13). Much
/// smaller than the scale_replay_test battery, but through the identical
/// stack, so drift in topology routing, mux batching, or arrival math
/// trips the pins mechanically.
inline ScenarioRun scale_openloop(sim::QueueKind kind, net::Transport tr,
                                  const std::string& metrics_path) {
  harness::OpenLoopConfig cfg;
  cfg.transport = tr;
  cfg.cluster_nodes = 128;
  cfg.topology = net::TopologySpec::fat_tree(8, 2);
  cfg.seed = 404;
  cfg.clients = 128'000;
  cfg.arrivals.kind = harness::ArrivalKind::kMmpp;
  cfg.arrivals.rate_per_sec = 1'000.0;
  cfg.update_bytes = 2048;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.1;
  cfg.hot_node = 5;
  cfg.churn_per_sec = 30.0;
  cfg.duration = SimTime::milliseconds(10);
  cfg.faults.all_links.loss = 0.01;
  cfg.faults.all_links.max_jitter = SimTime::microseconds(20);
  cfg.queue_kind = kind;
  cfg.obs.metrics_path = metrics_path;
  const auto r = harness::run_open_loop(cfg);
  return {r.events_fired, r.trace_digest, r.delivery_digest};
}

/// One named scenario: `run(queue_kind, metrics_path)`.
struct Scenario {
  std::string name;
  std::function<ScenarioRun(sim::QueueKind, const std::string&)> run;
};

/// Every pinned scenario, in pin-file (name) order.
inline std::vector<Scenario> all_scenarios() {
  using net::Transport;
  using Q = sim::QueueKind;
  using P = const std::string&;
  return {
      {"fig04_pingpong_svia",
       [](Q k, P m) { return fig04_pingpong(k, Transport::kSocketVia, m); }},
      {"fig04_pingpong_tcp",
       [](Q k, P m) { return fig04_pingpong(k, Transport::kKernelTcp, m); }},
      {"fig08_paced_svia",
       [](Q k, P m) { return fig08_paced(k, Transport::kSocketVia, m); }},
      {"fig08_paced_tcp",
       [](Q k, P m) { return fig08_paced(k, Transport::kKernelTcp, m); }},
      {"fig10_balance_svia",
       [](Q k, P m) {
         return fig10_balance(k, Transport::kSocketVia, 2 * 1024, m);
       }},
      {"fig10_balance_tcp",
       [](Q k, P m) {
         return fig10_balance(k, Transport::kKernelTcp, 16 * 1024, m);
       }},
      {"rdma_pingpong", [](Q k, P m) { return rdma_pingpong(k, m); }},
      {"scale_openloop_svia",
       [](Q k, P m) { return scale_openloop(k, Transport::kSocketVia, m); }},
      {"scale_openloop_tcp",
       [](Q k, P m) { return scale_openloop(k, Transport::kKernelTcp, m); }},
      {"svia_credit_stall",
       [](Q k, P m) { return svia_credit_stall(k, m); }},
      {"tcp_lossy_stream",
       [](Q k, P m) { return tcp_lossy_stream(k, m); }},
  };
}

}  // namespace sv::pinned
