#include "probes.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "control/slo.h"
#include "datacutter/runtime.h"
#include "harness/openloop.h"
#include "host.h"
#include "mem/payload.h"
#include "net/cluster.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "sockets/factory.h"

namespace perfbench {

using namespace sv;

namespace {

/// Host cost of one scenario run: run() only, never its set-up.
struct Sample {
  double ops = 0;
  double wall_s = 0;
  double events = 0;
  double ctx_switches = 0;
};

/// Runs `s` to completion and measures the run.
Sample measure_run(sim::Simulation& s) {
  Sample out;
  const double t0 = now_s();
  const std::uint64_t csw0 = usage().ctx_switches;
  s.run();
  out.wall_s = now_s() - t0;
  out.ctx_switches = static_cast<double>(usage().ctx_switches - csw0);
  out.events = static_cast<double>(s.events_fired());
  return out;
}

/// The difference between a long and a short run of `scenario(n)`; the
/// short run also warms caches, allocator and thread stacks.
Probe differential(const char* name, const std::function<Sample(int)>& scenario,
                   int n_short, int n_long) {
  const Sample a = scenario(n_short);
  const Sample b = scenario(n_long);
  return Probe{name, b.ops - a.ops, b.wall_s - a.wall_s, b.events - a.events,
               b.ctx_switches - a.ctx_switches};
}

/// Keeps `v`, and the work that produced it, from being optimised away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Runs `op` `warm` times, then times `n` more calls.
template <typename Op>
Probe timed_loop(const char* name, int warm, int n, Op&& op) {
  for (int i = 0; i < warm; ++i) op(i);
  const double t0 = now_s();
  for (int i = 0; i < n; ++i) op(i);
  return Probe{name, static_cast<double>(n), now_s() - t0, 0, 0};
}

// --- sim ---------------------------------------------------------------

/// One process calling Simulation::delay: per op, one event and a hand-off
/// to the process's OS thread and back.
Sample handoff(int n) {
  sim::Simulation s;
  s.spawn("probe", [&s, n] {
    for (int i = 0; i < n; ++i) s.delay(SimTime::nanoseconds(1));
  });
  Sample out = measure_run(s);
  out.ops = n;
  return out;
}

/// Engine::schedule plus fire of plain handlers: 64 self-rescheduling
/// chains with seeded delays keep the timing wheel realistically occupied.
Sample schedule_fire(int n) {
  struct Chain {
    sim::Engine* engine;
    Rng* rng;
    int* left;
    void fire() {
      if (--*left <= 0) return;
      const auto delay = static_cast<std::int64_t>(rng->next_below(4096));
      engine->schedule(SimTime::nanoseconds(delay), [this] { fire(); });
    }
  };
  sim::Simulation s;
  Rng rng(7);
  int left = n;
  std::vector<Chain> chains(64, Chain{&s.engine(), &rng, &left});
  for (Chain& c : chains) {
    s.engine().schedule(SimTime::zero(), [&c] { c.fire(); });
  }
  Sample out = measure_run(s);
  out.ops = out.events;
  return out;
}

// --- net ---------------------------------------------------------------

/// Topology::traverse between hosts in different pods of a fat_tree(12):
/// every call crosses four fabric links. One op is one link.
Sample traverse(int n) {
  sim::Simulation s;
  net::Topology topo(&s, net::TopologySpec::fat_tree(12), 256);
  double links = 0;
  s.spawn("probe", [&] {
    for (int i = 0; i < n; ++i) {
      const int src = i % 256;
      const int dst = (src + 128) % 256;
      links += topo.route(src, dst).hops;
      topo.traverse(src, dst, 1024);
    }
  });
  Sample out = measure_run(s);
  out.ops = links;
  return out;
}

// --- sockets, tcpstack, via ----------------------------------------------

/// A one-directional stream of `bytes`-sized messages over `tr` at
/// `fidelity`. `ops` is the sum of the registry counters whose names start
/// with `count` after the run (messages when null).
Sample socket_stream(sockets::Fidelity fidelity, net::Transport tr,
                     std::uint64_t bytes, int n, const char* count) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, fidelity);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("rx", [b = std::move(b), n]() mutable {
      for (int i = 0; i < n; ++i) {
        if (!b->recv()) break;
      }
    });
    for (int i = 0; i < n; ++i) a->send(net::Message{.bytes = bytes});
    a->close_send();
  });
  Sample out = measure_run(s);
  out.ops = count == nullptr
                ? static_cast<double>(n)
                : static_cast<double>(s.obs().registry.sum_counters(count));
  return out;
}

// --- datacutter ----------------------------------------------------------

class Producer : public dc::Filter {
 public:
  explicit Producer(int n) : n_(n) {}
  void process(dc::FilterContext& ctx) override {
    for (int i = 0; i < n_; ++i) {
      dc::DataBuffer b;
      b.bytes = 4096;
      b.tag = static_cast<std::uint64_t>(i);
      ctx.write(std::move(b));
    }
  }

 private:
  int n_;
};

class Consumer : public dc::Filter {
 public:
  void process(dc::FilterContext& ctx) override {
    while (ctx.read()) {
    }
  }
};

/// `n` 4 KiB buffers from a producer filter on node 0 to a consumer filter
/// on node 1, over SocketVIA, demand-driven.
Sample dc_buffers(int n) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster);
  dc::FilterGroup group;
  group.add_filter("producer", [n] { return std::make_unique<Producer>(n); },
                   {0});
  group.add_filter("consumer", [] { return std::make_unique<Consumer>(); },
                   {1});
  group.add_stream("producer", "consumer");
  dc::Runtime rt(&s, &cluster, &factory, std::move(group));
  rt.start();
  rt.submit(dc::Uow{1, {}});
  rt.close_input();
  Sample out = measure_run(s);
  out.ops = n;
  return out;
}

// --- control, obs --------------------------------------------------------

/// Controller::on_snapshot over 16 watched nodes, each window fed 8
/// latency samples per node below the target, so the controller runs its
/// full decision path without acting. Only the call is timed.
Probe controller_window(int warm, int n) {
  obs::Hub hub;
  control::ControllerConfig cfg;
  cfg.targets.p99_update_latency = SimTime::milliseconds(5);
  cfg.min_window_samples = 8;
  control::Controller ctrl(&hub, cfg, control::Actuators{});
  std::vector<obs::Histogram*> hist;
  for (int node = 0; node < 16; ++node) {
    ctrl.watch_node(node);
    hist.push_back(&hub.registry.histogram(
        "slo.update_latency_ns{node=node" + std::to_string(node) + "}",
        {250'000, 500'000, 1'000'000, 2'000'000, 5'000'000, 10'000'000}));
  }
  Rng rng(11);
  double timed = 0;
  for (int i = 0; i < warm + n; ++i) {
    for (obs::Histogram* h : hist) {
      for (int k = 0; k < 8; ++k) {
        h->observe(static_cast<std::int64_t>(rng.next_below(1'000'000)));
      }
    }
    const obs::Snapshot snap{SimTime::milliseconds(5 * (i + 1)),
                             static_cast<std::uint64_t>(i), &hub.registry};
    const double t0 = now_s();
    ctrl.on_snapshot(snap);
    if (i >= warm) timed += now_s() - t0;
  }
  return Probe{"control.window", static_cast<double>(n), timed, 0, 0};
}

struct NullSink : obs::SnapshotSink {
  std::uint64_t seen = 0;
  void on_snapshot(const obs::Snapshot& snap) override { seen += snap.seq; }
};

}  // namespace

std::vector<Probe> run_probes(bool tiny) {
  const int k = tiny ? 10 : 1;  // divides every probe's size
  std::vector<Probe> out;
  out.push_back(differential("sim.handoff", handoff, 2000 / k, 20000 / k));
  out.push_back(differential("sim.schedule_fire", schedule_fire, 200000 / k,
                             2000000 / k));
  out.push_back(differential("net.traverse", traverse, 500 / k, 5000 / k));
  out.push_back(differential(
      "tcpstack.segment",
      [](int n) {
        return socket_stream(sockets::Fidelity::kDetailed,
                             net::Transport::kKernelTcp, 65536, n,
                             "tcpstack.segments_sent");
      },
      20 / k + 1, 200 / k));
  out.push_back(differential(
      "via.message",
      [](int n) {
        return socket_stream(sockets::Fidelity::kDetailed,
                             net::Transport::kSocketVia, 4096, n, nullptr);
      },
      500 / k, 5000 / k));
  out.push_back(differential(
      "sockets.send_recv",
      [](int n) {
        return socket_stream(sockets::Fidelity::kFast,
                             net::Transport::kSocketVia, 4096, n, nullptr);
      },
      500 / k, 5000 / k));
  out.push_back(
      differential("datacutter.buffer", dc_buffers, 200 / k, 2000 / k));

  {
    Rng rng(3);
    auto bytes = std::make_shared<std::vector<std::byte>>(65536);
    for (std::byte& b : *bytes) b = static_cast<std::byte>(rng.next() & 0xffU);
    const mem::Payload base = mem::Payload::wrap(std::move(bytes));
    const mem::Payload tail = base.slice(100, 512);
    out.push_back(
        timed_loop("mem.payload", 100000 / k, 1000000 / k, [&](int i) {
          const auto off = static_cast<std::uint64_t>(i) & 0x7fffU;
          keep(base.slice(off, 1024).concat(tail).span_count());
        }));
  }
  out.push_back(controller_window(200 / k, 2000 / k));
  {
    obs::Hub hub;
    NullSink sink;
    hub.attach(&sink);
    out.push_back(
        timed_loop("obs.publish", 100000 / k, 1000000 / k,
                   [&](int i) { hub.publish(SimTime::nanoseconds(i)); }));
    hub.detach(&sink);
  }
  {
    harness::ArrivalSpec spec;
    spec.kind = harness::ArrivalKind::kMmpp;
    spec.rate_per_sec = 2'000.0;
    harness::ArrivalProcess ap(spec, 5);
    out.push_back(timed_loop("harness.arrival", 100000 / k, 1000000 / k,
                             [&](int) { keep(ap.next().ns()); }));
  }
  return out;
}

}  // namespace perfbench
