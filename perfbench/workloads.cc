#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "harness/openloop.h"
#include "harness/vizbench.h"
#include "host.h"
#include "mem/payload.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "sim/sync.h"
#include "sockets/factory.h"
#include "sockets/tcp_socket.h"
#include "vizapp/policy.h"
#include "vizapp/server.h"

namespace perfbench {

using namespace sv;

std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t d) {
  for (int i = 0; i < 8; ++i) {
    acc ^= (d >> (8 * i)) & 0xffU;
    acc *= 1099511628211ULL;
  }
  return acc;
}

namespace {

/// A family's total: its unlabelled counter when one exists, otherwise the
/// sum of its labelled members.
double family_total(const obs::Registry& reg, const std::string& name) {
  if (const obs::Counter* c = reg.find_counter(name)) {
    return static_cast<double>(c->value());
  }
  return static_cast<double>(reg.sum_counters(name + "{"));
}

const char* const kCountedFamilies[] = {
    "sim.events_fired",       "sim.events_cancelled",
    "sim.wheel_cascades",     "topo.link_frames",
    "topo.link_wait_ns",      "fabric.frames",
    "fabric.messages_sent",   "fabric.frames_retransmitted",
    "fault.frames_dropped",   "tcpstack.segments_sent",
    "tcpstack.acks_sent",     "tcpstack.segments_retransmitted",
    "via_sock.credit_updates", "socket.messages_sent",
    "socket.timeouts",        "mux.batches",
    "mux.batch_records",      "mux.drops",
    "mux.flushed",            "mem.copies",
    "mem.copy_bytes",         "mem.pool_alloc",
    "mem.pool_reuse",         "mem.regcache_hits",
    "mem.regcache_misses",    "dc.buffers_out",
    "dc.blocked_ns",          "dc.stall_ns",
    "slo.windows",            "slo.actions",
    "slo.throttled",          "obs.snapshots",
};

void collect_counts(const obs::Registry& reg, Rep& rep) {
  for (const char* name : kCountedFamilies) {
    rep.counts[name] += family_total(reg, name);
  }
  // Socket messages by socket kind (label prefix = the transport label).
  rep.counts["socket.messages_sent.fast"] += static_cast<double>(
      reg.sum_counters("socket.messages_sent{socket=fast."));
  rep.counts["socket.messages_sent.svia"] += static_cast<double>(
      reg.sum_counters("socket.messages_sent{socket=svia."));
}

/// Times one simulation's phases from outside. Declare it before the
/// Simulation in the same scope: it starts the set-up clock on
/// construction, and its destructor, which runs after ~Simulation and every
/// object built after it, closes the teardown clock.
class Meter {
 public:
  Meter(Rep& rep, const Options& opt) : rep_(rep), opt_(opt), t0_(now_s()) {}
  ~Meter() { rep_.teardown_s += now_s() - t_end_; }
  Meter(const Meter&) = delete;
  Meter& operator=(const Meter&) = delete;

  void run(sim::Simulation& s) {
    const double t1 = now_s();
    rep_.setup_s += t1 - t0_;
    // Every process spawned in set-up owns an OS thread by now.
    const int threads_at_entry = os_threads();
    const std::uint64_t csw0 = usage().ctx_switches;
    s.run();
    const double t2 = now_s();
    rep_.run_s += t2 - t1;
    rep_.run_ctx_switches += usage().ctx_switches - csw0;
    // Just before teardown every live process still holds its thread.
    // Counted from the simulation, not /proc: a finished process's thread
    // may or may not have exited yet at this instant.
    const int threads_at_end = 1 + static_cast<int>(s.live_process_count());
    rep_.peak_threads =
        std::max({rep_.peak_threads, threads_at_entry, threads_at_end});
    rep_.digest = fold_digest(rep_.digest, s.engine().trace_digest());
    if (opt_.traced) {
      collect_counts(s.obs().registry, rep_);
      // Process ids are sequential from 1, so the id of one more (empty)
      // process spawned after the run counts every earlier spawn. The run
      // is over, so it never fires an event; teardown runs its empty body.
      rep_.processes += s.spawn("perfbench.count", [] {}).id() - 1;
    }
    t_end_ = now_s();
  }

 private:
  Rep& rep_;
  const Options& opt_;
  double t0_;
  double t_end_ = 0;
};

// ---------------------------------------------------------------- viz_paced

constexpr double kVizUps = 2.0;

int viz_updates(const Options& o) { return o.tiny ? 2 : 3; }
int viz_warmup(const Options& o) { return o.tiny ? 0 : 1; }

/// A Fig 7(a) point: the microscope pipeline on 16 nodes, with the block
/// size the paper's policy picks for `tr` at kVizUps (TCP's own curves for
/// kernel TCP, SocketVIA's for SocketVIA with DR).
harness::VizWorkloadConfig viz_config(const Options& o, net::Transport tr) {
  harness::VizWorkloadConfig cfg;
  cfg.transport = tr;
  cfg.image_bytes = (o.tiny ? 512U : 1024U) * 1024;
  cfg.cluster_nodes = 16;
  cfg.seed = o.seed;
  const net::CostModel model{tr == net::Transport::kKernelTcp
                                 ? net::CalibrationProfile::kernel_tcp()
                                 : net::CalibrationProfile::socket_via()};
  cfg.block_bytes = viz::block_for_update_rate_with_compute(
      model, kVizUps, cfg.image_bytes, PerByteCost::zero());
  return cfg;
}

viz::VizConfig viz_app_config(const harness::VizWorkloadConfig& cfg) {
  viz::VizConfig app;
  app.transport = cfg.transport;
  app.image_bytes = cfg.image_bytes;
  app.block_bytes = cfg.block_bytes;
  app.stage_compute = cfg.compute;
  app.viz_compute = cfg.compute;
  return app;
}

/// harness::run_paced_updates, step for step, with the phases timed and
/// every submitted query accounted for.
/// Returns the achieved complete-update rate.
double paced_half(const harness::VizWorkloadConfig& cfg, const Options& o,
                  bool corrupt, Rep& rep) {
  const int updates = viz_updates(o);
  const int warmup = viz_warmup(o);
  if (cfg.block_bytes >= cfg.image_bytes) {
    rep.violations.push_back(std::string("viz_paced: ") +
                             net::transport_name(cfg.transport) +
                             " cannot meet the update rate");
  }
  std::vector<SimTime> completions;
  std::uint64_t probes_submitted = 0;
  std::uint64_t probes_done = 0;
  Samples partial;
  {
    Meter m(rep, o);
    sim::Simulation s(cfg.queue_kind);
    net::Cluster cluster(&s, cfg.cluster_nodes);
    cluster.install_faults(cfg.faults, cfg.seed);
    harness::begin_obs(s, cfg.obs);
    sockets::SocketFactory factory(&s, &cluster);
    factory.set_copy_policy(cfg.copy_policy);
    viz::VizApp update_app(&s, &cluster, &factory, viz_app_config(cfg));
    viz::VizApp probe_app(&s, &cluster, &factory, viz_app_config(cfg));
    update_app.start();
    probe_app.start();

    const auto interval =
        SimTime::nanoseconds(static_cast<std::int64_t>(1e9 / kVizUps));
    bool updates_finished = false;
    s.spawn("update_submitter", [&] {
      for (int i = 0; i < updates; ++i) {
        update_app.submit(viz::Query{viz::QueryType::kComplete, 0, 4});
        if (i + 1 < updates) s.delay(interval);
      }
    });
    s.spawn("update_collector", [&] {
      for (int i = 0; i < updates; ++i) {
        auto done = update_app.wait_done();
        if (!done) break;
        completions.push_back(done->second);
      }
      updates_finished = true;
      update_app.close();
      probe_app.close();
    });
    s.spawn("probe_client", [&] {
      Rng rng(cfg.seed);
      const auto blocks = probe_app.image().block_count();
      s.delay(interval / 2);
      while (!updates_finished) {
        const SimTime t0 = s.now();
        probe_app.submit(viz::Query{viz::QueryType::kPartial,
                                    rng.next_below(blocks), 4});
        ++probes_submitted;
        auto done = probe_app.wait_done();
        if (!done) break;
        ++probes_done;
        if (!updates_finished) partial.add(s.now() - t0);
        s.delay(interval / 4);
      }
    });
    m.run(s);
  }

  const auto submitted = static_cast<std::uint64_t>(updates) + probes_submitted;
  std::uint64_t completed = completions.size() + probes_done;
  if (corrupt) --completed;
  rep.attempted += submitted;
  rep.failed += submitted - completed;
  if (completed != submitted) {
    rep.violations.push_back(
        std::string("viz_paced: ") + net::transport_name(cfg.transport) +
        ": " + std::to_string(submitted - completed) + " of " +
        std::to_string(submitted) + " queries did not complete");
  }
  for (const double v : partial.raw()) rep.latency_ns.add(v);

  double achieved = 0;
  if (static_cast<int>(completions.size()) > warmup + 1) {
    const auto span =
        completions.back() - completions[static_cast<std::size_t>(warmup)];
    const auto n = completions.size() - static_cast<std::size_t>(warmup) - 1;
    if (span.ns() > 0) {
      achieved = static_cast<double>(n) * 1e9 / static_cast<double>(span.ns());
    }
  }
  return achieved;
}

Rep viz_paced(const Options& o) {
  Rep rep;
  const double tcp =
      paced_half(viz_config(o, net::Transport::kKernelTcp), o, o.corrupt, rep);
  const double svia =
      paced_half(viz_config(o, net::Transport::kSocketVia), o, false, rep);
  rep.achieved_ups = std::min(tcp, svia);
  return rep;
}

// ---------------------------------------------------- open-loop workloads

/// The 256-host scale point of the open-loop sweep, kernel TCP at fast
/// fidelity.
harness::OpenLoopConfig fattree_config(const Options& o) {
  harness::OpenLoopConfig cfg;
  cfg.transport = net::Transport::kKernelTcp;
  cfg.cluster_nodes = o.tiny ? 16 : 256;
  cfg.topology = net::TopologySpec::fat_tree(o.tiny ? 4 : 12, 1);
  cfg.seed = o.seed;
  cfg.clients = static_cast<std::uint64_t>(cfg.cluster_nodes) * 1000;
  cfg.arrivals.kind = harness::ArrivalKind::kMmpp;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.05;
  cfg.hot_node = 1;
  cfg.duration = SimTime::milliseconds(o.tiny ? 2 : 5);
  return cfg;
}

/// The controlled run of the SLO evaluation: 16-node fat-tree, two query
/// classes, incast onto one of two nodes that stall for 60 ms, Gilbert
/// burst loss on every link, and the pin-down registration cache as the
/// SendMux copy policy.
const harness::SloControlConfig& slo_control() {
  static const harness::SloControlConfig slo = [] {
    harness::SloControlConfig c;
    c.window = SimTime::milliseconds(5);
    c.controller.targets.p99_update_latency = SimTime::milliseconds(5);
    c.controller.band_high_pct = 100;
    c.controller.band_low_pct = 60;
    c.controller.violate_windows = 2;
    c.controller.recover_windows = 4;
    c.controller.cooldown = SimTime::milliseconds(10);
    c.controller.min_window_samples = 8;
    c.controller.throttle_step_permille = 250;
    c.controller.min_admit_permille = 250;
    c.controller.chunk_min_bytes = 1024;
    c.controller.chunk_max_bytes = 4096;
    c.controller.demote_latency_pct = 150;
    c.controller.demote_windows = 2;
    c.controller.max_demoted = 2;
    c.controller.demote_hold = SimTime::milliseconds(80);
    return c;
  }();
  return slo;
}

harness::OpenLoopConfig slo_config(const Options& o) {
  constexpr int kStalledA = 2;  // also the incast hot node
  constexpr int kStalledB = 3;
  harness::OpenLoopConfig cfg;
  cfg.transport = net::Transport::kSocketVia;
  cfg.cluster_nodes = 16;
  cfg.topology = net::TopologySpec::fat_tree(4);
  cfg.seed = o.seed;
  cfg.clients = 16'000;
  cfg.arrivals.kind = harness::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.2;
  cfg.hot_node = kStalledA;
  cfg.duration = SimTime::milliseconds(o.tiny ? 30 : 200);
  cfg.classes.push_back({"interactive", 1, 512, /*sheddable=*/false});
  cfg.classes.push_back({"bulk", 3, 4'096, /*sheddable=*/true});
  net::NodeFault stall;
  stall.node = kStalledA;
  stall.start = SimTime::milliseconds(20);
  stall.duration = SimTime::milliseconds(60);
  stall.slow_factor = 0;
  net::NodeFault stall_b = stall;
  stall_b.node = kStalledB;
  cfg.faults.nodes = {stall, stall_b};
  cfg.faults.all_links.loss = 0.002;
  cfg.faults.all_links.burst_continue = 0.5;
  cfg.mux.copy_policy.kind = mem::CopyPolicyKind::kRegCache;
  cfg.slo = &slo_control();
  return cfg;
}

/// Outcome tally of one open-loop run, in mux records (an update the
/// controller chunks is several records).
/// The accepted records of updates not yet fully delivered. A generator
/// submits all of an update's records on one connection at one simulated
/// instant, so (source node, connection, enqueue ns) names the update; two
/// updates that share all three are one entry.
struct InFlight {
  std::uint64_t updates = 0;
  std::uint64_t records = 0;
  bool refused = false;  // some record of the entry was refused at submit
};
using UpdateKey = std::tuple<int, std::uint64_t, std::int64_t>;

struct OpenLoopTally {
  std::uint64_t offered = 0;    // updates the generators produced
  std::uint64_t throttled = 0;  // updates shed before any submit
  std::uint64_t records = 0;    // records submitted (accepted or not)
  std::uint64_t drops = 0;      // records refused at a full lane
  std::uint64_t delivered = 0;  // records delivered at their destination
  std::uint64_t flushed = 0;    // records discarded from demoted lanes
  std::uint64_t refused_updates = 0;  // updates with a record refused
  /// Updates with no record refused but one never delivered (at drain).
  std::uint64_t undelivered_updates = 0;
  std::map<UpdateKey, InFlight> in_flight;
};

/// harness::run_open_loop, step for step, with the phases timed and every
/// record accounted for. Any change to the simulated schedule shows up as
/// a digest mismatch against the harness function (harness_digest).
OpenLoopTally open_loop(const harness::OpenLoopConfig& cfg, const Options& o,
                        Rep& rep) {
  OpenLoopTally t;
  Meter m(rep, o);
  const int nodes = cfg.cluster_nodes;
  const int fanout = std::max(1, std::min(cfg.fanout, nodes - 1));
  const bool incast = cfg.incast_fraction > 0.0;

  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, nodes, net::NodeConfig{}, cfg.topology);
  cluster.install_faults(cfg.faults, cfg.seed);
  harness::begin_obs(s, cfg.obs);

  Samples& latency = rep.latency_ns;
  const bool slo_on = cfg.slo != nullptr;
  obs::Counter* c_offered = nullptr;
  obs::Counter* c_throttled = nullptr;
  std::vector<obs::Histogram*> lat_hist;
  if (slo_on) {
    obs::Registry& reg = s.obs().registry;
    c_offered = &reg.counter("slo.offered");
    c_throttled = &reg.counter("slo.throttled");
    const std::vector<std::int64_t> slo_bounds = {
        250'000,    500'000,    1'000'000,  2'000'000,  3'000'000,
        4'000'000,  5'000'000,  7'500'000,  10'000'000, 15'000'000,
        20'000'000, 30'000'000, 50'000'000, 100'000'000};
    lat_hist.resize(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      lat_hist[static_cast<std::size_t>(n)] = &reg.histogram(
          "slo.update_latency_ns{node=node" + std::to_string(n) + "}",
          slo_bounds);
    }
  }

  sockets::SendMuxConfig mux_cfg = cfg.mux;
  mux_cfg.transport = cfg.transport;
  std::vector<std::unique_ptr<sockets::SendMux>> muxes;
  muxes.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    muxes.push_back(std::make_unique<sockets::SendMux>(
        &s, &cluster, n, mux_cfg,
        [&t, &latency, &lat_hist, slo_on, n](
            int dst, const sockets::MuxRecord& rec, SimTime at) {
          ++t.delivered;
          const auto it =
              t.in_flight.find({n, rec.conn, rec.enqueued.ns()});
          if (--it->second.records == 0) t.in_flight.erase(it);
          const SimTime l = at - rec.enqueued;
          latency.add(l);
          if (slo_on) {
            lat_hist[static_cast<std::size_t>(dst)]->observe(l.ns());
          }
        }));
  }

  std::vector<std::vector<std::uint64_t>> conns(
      static_cast<std::size_t>(nodes));
  std::vector<std::vector<int>> conn_dsts(static_cast<std::size_t>(nodes));
  std::vector<std::uint64_t> hot_conns(static_cast<std::size_t>(nodes), 0);
  for (int n = 0; n < nodes; ++n) {
    const auto un = static_cast<std::size_t>(n);
    for (int j = 0; j < fanout; ++j) {
      const int dst = (n + 1 + j) % nodes;
      conns[un].push_back(muxes[un]->open_connection(dst));
      conn_dsts[un].push_back(dst);
    }
    if (incast && n != cfg.hot_node) {
      hot_conns[un] = muxes[un]->open_connection(cfg.hot_node);
    }
  }

  const bool has_classes = !cfg.classes.empty();
  std::vector<std::uint64_t> cum_weight;
  std::uint64_t weight_sum = 0;
  for (const harness::QueryClass& qc : cfg.classes) {
    weight_sum += static_cast<std::uint64_t>(qc.weight);
    cum_weight.push_back(weight_sum);
  }

  std::vector<char> demoted(static_cast<std::size_t>(nodes), 0);
  std::uint64_t chunk_bytes = 0;
  std::unique_ptr<control::AdmissionControl> admission;
  std::unique_ptr<control::Controller> controller;
  if (slo_on) {
    std::vector<control::AdmissionControl::ClassSpec> specs;
    const double total_rate =
        cfg.arrivals.peak_rate_per_sec() * static_cast<double>(nodes);
    const auto scaled_rate = [&](int weight) {
      const double share = has_classes
                               ? static_cast<double>(weight) /
                                     static_cast<double>(weight_sum)
                               : 1.0;
      const double r = total_rate * share *
                       static_cast<double>(cfg.slo->admission_headroom_pct) /
                       100.0;
      return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(r));
    };
    if (has_classes) {
      for (const harness::QueryClass& qc : cfg.classes) {
        specs.push_back({qc.name, scaled_rate(qc.weight),
                         cfg.slo->bucket_burst, qc.sheddable});
      }
    } else {
      specs.push_back(
          {"default", scaled_rate(1), cfg.slo->bucket_burst, true});
    }
    admission = std::make_unique<control::AdmissionControl>(std::move(specs));

    chunk_bytes = cfg.slo->controller.chunk_max_bytes;
    control::Actuators acts;
    acts.admission = admission.get();
    acts.apply_chunk_bytes = [&chunk_bytes](std::uint64_t b) {
      chunk_bytes = b;
    };
    acts.apply_demotion = [&muxes, &demoted, nodes](int node) {
      demoted[static_cast<std::size_t>(node)] = 1;
      for (auto& mx : muxes) mx->flush_lane(node);
      for (int d = 0; d < nodes; ++d) {
        muxes[static_cast<std::size_t>(node)]->flush_lane(d);
      }
      muxes[static_cast<std::size_t>(node)]->flush_registrations();
    };
    acts.apply_promotion = [&demoted](int node) {
      demoted[static_cast<std::size_t>(node)] = 0;
    };
    controller = std::make_unique<control::Controller>(
        &s.obs(), cfg.slo->controller, std::move(acts));
    for (int n = 0; n < nodes; ++n) controller->watch_node(n);
    s.obs().attach(controller.get());
    if (!s.metrics_pump_active()) s.publish_metrics_every(cfg.slo->window);
  }

  const auto clients_of = [&cfg, nodes](int n) {
    const auto base = cfg.clients / static_cast<std::uint64_t>(nodes);
    const auto extra = cfg.clients % static_cast<std::uint64_t>(nodes);
    return std::max<std::uint64_t>(
        1, base + (static_cast<std::uint64_t>(n) < extra ? 1 : 0));
  };

  sim::Channel<int> done(&s, 0, "openloop.done");
  for (int n = 0; n < nodes; ++n) {
    std::uint64_t st =
        cfg.seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(n) + 1);
    const std::uint64_t arrival_seed = splitmix64_next(st);
    const std::uint64_t pick_seed = splitmix64_next(st);

    s.spawn("openloop.gen" + std::to_string(n), [&, n, arrival_seed,
                                                 pick_seed] {
      const auto un = static_cast<std::size_t>(n);
      harness::ArrivalProcess ap(cfg.arrivals, arrival_seed);
      Rng pick(pick_seed);
      const std::uint64_t population = clients_of(n);
      for (;;) {
        const SimTime at = ap.next();
        if (at > cfg.duration) break;
        s.delay(at - s.now());
        ++t.offered;
        const std::uint64_t client = pick.next_below(population);

        std::size_t cls = 0;
        std::uint64_t bytes = cfg.update_bytes;
        if (has_classes) {
          const std::uint64_t w = pick.next_below(weight_sum);
          while (cum_weight[cls] <= w) ++cls;
          bytes = cfg.classes[cls].update_bytes;
        }
        if (slo_on) c_offered->inc();

        if (slo_on && demoted[un] != 0) {
          ++t.throttled;
          c_throttled->inc();
          continue;
        }
        if (admission != nullptr && !admission->admit(cls, s.now())) {
          ++t.throttled;
          c_throttled->inc();
          continue;
        }

        std::uint64_t conn;
        bool to_hot =
            incast && n != cfg.hot_node && pick.bernoulli(cfg.incast_fraction);
        if (to_hot && slo_on &&
            demoted[static_cast<std::size_t>(cfg.hot_node)] != 0) {
          to_hot = false;
        }
        if (to_hot) {
          conn = hot_conns[un];
        } else {
          std::size_t j = static_cast<std::size_t>(client) % conns[un].size();
          if (slo_on) {
            for (std::size_t k = 0; k < conn_dsts[un].size(); ++k) {
              const std::size_t cand = (j + k) % conn_dsts[un].size();
              if (demoted[static_cast<std::size_t>(conn_dsts[un][cand])] ==
                  0) {
                j = cand;
                break;
              }
            }
          }
          conn = conns[un][j];
        }

        const std::uint64_t chunk =
            chunk_bytes > 0 && chunk_bytes < bytes ? chunk_bytes : bytes;
        const UpdateKey key{n, conn, s.now().ns()};
        InFlight& update = t.in_flight[key];
        ++update.updates;
        bool refused = false;
        for (std::uint64_t off = 0; off < bytes; off += chunk) {
          const std::uint64_t piece = std::min(chunk, bytes - off);
          ++t.records;
          if (muxes[un]->submit(conn, piece)) {
            ++update.records;
          } else {
            ++t.drops;
            refused = true;
          }
        }
        if (refused) {
          ++t.refused_updates;
          update.refused = true;
        }
        if (update.records == 0) t.in_flight.erase(key);
      }
      done.send(n);
    });
  }

  s.spawn("openloop.closer", [&] {
    for (int n = 0; n < nodes; ++n) (void)done.recv();
    for (auto& mx : muxes) mx->shutdown();
  });

  m.run(s);
  if (controller != nullptr) s.obs().detach(controller.get());
  t.flushed = static_cast<std::uint64_t>(
      family_total(s.obs().registry, "mux.flushed"));
  for (const auto& [key, update] : t.in_flight) {
    if (!update.refused) t.undelivered_updates += update.updates;
  }
  return t;
}

/// Conservation at drain: every record submitted was delivered, refused at
/// a full lane, or flushed from a demoted replica's lane.
Rep open_loop_workload(const char* name, const harness::OpenLoopConfig& cfg,
                       const Options& o) {
  Rep rep;
  OpenLoopTally t = open_loop(cfg, o, rep);
  if (o.corrupt) --t.delivered;
  const std::uint64_t accounted = t.delivered + t.drops + t.flushed;
  const std::uint64_t lost = t.records > accounted ? t.records - accounted : 0;
  if (accounted != t.records) {
    rep.violations.push_back(
        std::string(name) + ": " + std::to_string(t.records) +
        " records submitted but " + std::to_string(t.delivered) +
        " delivered + " + std::to_string(t.drops) + " dropped + " +
        std::to_string(t.flushed) + " flushed");
  }
  // Counted per update, as offered. When conservation holds, every record
  // neither delivered nor refused was flushed, so an update left with
  // undelivered records was shed by the controller; otherwise records were
  // lost and such updates failed.
  rep.attempted = t.offered;
  rep.failed = t.refused_updates + (lost != 0 ? t.undelivered_updates : 0);
  rep.shed = t.throttled + (lost != 0 ? 0 : t.undelivered_updates);
  return rep;
}

Rep openloop_fattree256(const Options& o) {
  return open_loop_workload("openloop_fattree256", fattree_config(o), o);
}

Rep slo_faulted(const Options& o) {
  return open_loop_workload("slo_faulted", slo_config(o), o);
}

// --------------------------------------------------------- sockets_detailed

/// The Fig 4 anchors: the paper's measured SocketVIA and kernel-TCP
/// one-way latency (4 B) and peak bandwidth (64 KiB streaming).
constexpr double kPaperSviaLatencyUs = 9.5;
constexpr double kPaperSviaMbps = 763.0;
constexpr double kPaperTcpLatencyUs = 47.5;
constexpr double kPaperTcpMbps = 510.0;

/// Iterations per size, as in the Fig 4 bench, so the anchors computed
/// here equal the committed figure.
int socket_iters(const Options& o) { return o.tiny ? 5 : 50; }

/// A seeded byte source; message i of a pass is the window at offset i,
/// so every message carries distinct content without copying.
mem::Payload random_bytes(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto bytes = std::make_shared<std::vector<std::byte>>(n);
  for (std::byte& b : *bytes) b = static_cast<std::byte>(rng.next() & 0xffU);
  return mem::Payload::wrap(std::move(bytes));
}

struct Pass {
  std::uint64_t sent = 0;
  std::uint64_t exact = 0;  // delivered and byte-identical
  std::uint64_t timeouts = 0;
};

void account(const Pass& p, const char* what, std::uint64_t bytes, Rep& rep) {
  rep.attempted += p.sent;
  const std::uint64_t bad = p.sent - p.exact + p.timeouts;
  rep.failed += bad;
  if (bad != 0) {
    rep.violations.push_back("sockets_detailed: " + std::string(what) + " " +
                             std::to_string(bytes) + " B: " +
                             std::to_string(bad) + " of " +
                             std::to_string(p.sent) +
                             " messages not delivered byte-exact");
  }
}

sockets::SocketPair connect_detailed(sockets::SocketFactory& factory,
                                     net::Transport tr, bool nodelay) {
  if (tr == net::Transport::kKernelTcp && nodelay) {
    tcpstack::TcpOptions opt;
    opt.nagle = false;
    return sockets::DetailedTcpSocket::make_pair(factory.tcp_stack(0),
                                                 factory.tcp_stack(1), opt);
  }
  return factory.connect(0, 1, tr);
}

/// Ping-pong with Nagle off; returns the one-way latency.
SimTime pingpong(net::Transport tr, std::uint64_t bytes, const Options& o,
                 bool corrupt, Rep& rep) {
  const int iters = socket_iters(o);
  const mem::Payload src =
      random_bytes(bytes + static_cast<std::uint64_t>(iters), o.seed + bytes);
  Pass p;
  SimTime elapsed;
  {
    Meter m(rep, o);
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
    s.spawn("app", [&] {
      auto [a, b] = connect_detailed(factory, tr, /*nodelay=*/true);
      s.spawn("pong", [&, b = std::move(b)]() mutable {
        while (auto msg = b->recv()) b->send(std::move(*msg));
      });
      const SimTime t0 = s.now();
      for (int i = 0; i < iters; ++i) {
        const mem::Payload body =
            src.slice(static_cast<std::uint64_t>(i), bytes);
        a->send(net::Message{.bytes = bytes, .payload = body});
        ++p.sent;
        auto back = a->recv();
        if (back && back->payload.content_equals(body)) ++p.exact;
      }
      elapsed = s.now() - t0;
      a->close_send();
    });
    m.run(s);
    p.timeouts = static_cast<std::uint64_t>(
        family_total(s.obs().registry, "socket.timeouts"));
  }
  if (corrupt) --p.exact;
  account(p, tr == net::Transport::kKernelTcp ? "TCP ping-pong"
                                              : "SocketVIA ping-pong",
          bytes, rep);
  const SimTime one_way = elapsed / (2 * iters);
  rep.latency_ns.add(one_way);
  return one_way;
}

/// One-directional stream; returns the receive-side bandwidth in Mbps.
double stream(net::Transport tr, std::uint64_t bytes, double loss,
              const Options& o, Rep& rep) {
  const int iters = socket_iters(o);
  const mem::Payload src = random_bytes(
      bytes + static_cast<std::uint64_t>(iters), o.seed ^ (bytes << 20));
  Pass p;
  SimTime elapsed;
  {
    Meter m(rep, o);
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    if (loss > 0) {
      cluster.install_faults(net::FaultPlan::uniform_loss(loss), o.seed);
    }
    sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
    s.spawn("app", [&] {
      auto [a, b] = connect_detailed(factory, tr, /*nodelay=*/false);
      s.spawn("rx", [&, b = std::move(b)]() mutable {
        const SimTime t0 = s.now();
        for (int i = 0; i < iters; ++i) {
          auto msg = b->recv();
          if (!msg) break;
          if (msg->payload.content_equals(
                  src.slice(static_cast<std::uint64_t>(i), bytes))) {
            ++p.exact;
          }
        }
        elapsed = s.now() - t0;
      });
      for (int i = 0; i < iters; ++i) {
        a->send(net::Message{
            .bytes = bytes,
            .payload = src.slice(static_cast<std::uint64_t>(i), bytes)});
        ++p.sent;
      }
      a->close_send();
    });
    m.run(s);
    p.timeouts = static_cast<std::uint64_t>(
        family_total(s.obs().registry, "socket.timeouts"));
  }
  account(p, loss > 0 ? "lossy TCP stream" : "stream", bytes, rep);
  return throughput_mbps(bytes * static_cast<std::uint64_t>(iters), elapsed);
}

Rep sockets_detailed(const Options& o) {
  Rep rep;
  const std::vector<std::uint64_t> sizes =
      o.tiny ? std::vector<std::uint64_t>{4, 65536}
             : std::vector<std::uint64_t>{4,    16,   64,    256,
                                          1024, 4096, 16384, 65536};
  double svia_lat = 0, tcp_lat = 0, svia_bw = 0, tcp_bw = 0;
  for (const std::uint64_t n : sizes) {
    const double sl =
        pingpong(net::Transport::kSocketVia, n, o, false, rep).us();
    const double tl =
        pingpong(net::Transport::kKernelTcp, n, o, o.corrupt && n == 4, rep)
            .us();
    const double sb = stream(net::Transport::kSocketVia, n, 0.0, o, rep);
    const double tb = stream(net::Transport::kKernelTcp, n, 0.0, o, rep);
    if (n == sizes.front()) {
      svia_lat = sl;
      tcp_lat = tl;
    }
    if (n == sizes.back()) {
      svia_bw = sb;
      tcp_bw = tb;
    }
  }
  (void)stream(net::Transport::kKernelTcp, sizes.back(), 0.01, o, rep);

  const double anchors[4][2] = {{svia_lat, kPaperSviaLatencyUs},
                                {svia_bw, kPaperSviaMbps},
                                {tcp_lat, kPaperTcpLatencyUs},
                                {tcp_bw, kPaperTcpMbps}};
  double err = 0;
  for (const auto& a : anchors) {
    if (!(a[0] > 0) || !std::isfinite(a[0])) {
      rep.violations.push_back(
          "sockets_detailed: a Fig 4 anchor was not computed");
    }
    err += std::fabs(a[0] - a[1]) / a[1] * 100.0 / 4.0;
  }
  rep.model_err_pct = err;
  return rep;
}

}  // namespace

Rep run_workload(const std::string& name, const Options& opt) {
  if (name == "viz_paced") return viz_paced(opt);
  if (name == "openloop_fattree256") return openloop_fattree256(opt);
  if (name == "slo_faulted") return slo_faulted(opt);
  if (name == "sockets_detailed") return sockets_detailed(opt);
  throw std::invalid_argument("unknown workload: " + name);
}

bool harness_digest(const std::string& name, const Options& opt,
                    std::uint64_t* digest) {
  std::uint64_t d = Rep{}.digest;
  if (name == "viz_paced") {
    for (const net::Transport tr :
         {net::Transport::kKernelTcp, net::Transport::kSocketVia}) {
      const harness::PacedResult r = harness::run_paced_updates(
          viz_config(opt, tr), kVizUps, viz_updates(opt), viz_warmup(opt));
      d = fold_digest(d, r.trace_digest);
    }
  } else if (name == "openloop_fattree256" || name == "slo_faulted") {
    const harness::OpenLoopConfig cfg = name == "slo_faulted"
                                            ? slo_config(opt)
                                            : fattree_config(opt);
    d = fold_digest(d, harness::run_open_loop(cfg).trace_digest);
  } else {
    return false;
  }
  *digest = d;
  return true;
}

}  // namespace perfbench
