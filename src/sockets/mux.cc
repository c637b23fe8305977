#include "sockets/mux.h"

#include <utility>

#include "common/check.h"

namespace sv::sockets {

SendMux::State::State(sim::Simulation* sim_in, net::Cluster* cluster_in,
                      int node_in, SendMuxConfig cfg_in,
                      DeliveryFn on_delivery_in)
    : sim(sim_in),
      cluster(cluster_in),
      node(node_in),
      cfg(cfg_in),
      on_delivery(std::move(on_delivery_in)),
      name("mux.node" + std::to_string(node_in)),
      work_waiters(sim_in, name + ".work") {
  SV_ASSERT(cfg.aggregate_max_bytes > 0 && cfg.aggregate_max_msgs > 0,
            "SendMux: aggregate caps must be positive");
  obs::Registry& reg = sim->obs().registry;
  const std::string nl = "{node=node" + std::to_string(node) + "}";
  reg.counter("mux.senders").inc();
  c_submitted = &reg.counter("mux.submitted" + nl);
  c_submitted_bytes = &reg.counter("mux.submitted_bytes" + nl);
  c_drops = &reg.counter("mux.drops" + nl);
  c_batches = &reg.counter("mux.batches" + nl);
  c_batch_records = &reg.counter("mux.batch_records" + nl);
  c_delivered = &reg.counter("mux.delivered" + nl);
  c_flushed = &reg.counter("mux.flushed" + nl);
  g_queued_bytes = &reg.gauge("mux.queued_bytes" + nl);
  if (cfg.copy_policy.kind != mem::CopyPolicyKind::kStaticPool) {
    policy = std::make_unique<mem::CopyPolicy>(&sim->obs(), node,
                                               cfg.copy_policy);
  }
}

SendMux::SendMux(sim::Simulation* sim, net::Cluster* cluster, int node,
                 SendMuxConfig cfg, DeliveryFn on_delivery)
    : st_(std::make_shared<State>(sim, cluster, node, cfg,
                                  std::move(on_delivery))) {
  sim->spawn(st_->name + ".sender", [st = st_] { st->sender_loop(); });
}

SendMux::~SendMux() {
  // Stop intake; the co-owning sender process drains the lanes and winds
  // down on its own (Pipe-style lifetime).
  if (!st_->stopping) {
    st_->stopping = true;
    st_->work_waiters.notify_all();
  }
}

SendMux::Lane& SendMux::State::lane(int dst) {
  auto it = lanes.find(dst);
  if (it != lanes.end()) return it->second;
  Lane& l = lanes[dst];
  net::CalibrationProfile profile =
      net::CalibrationProfile::for_transport(cfg.transport);
  if (cfg.window_bytes > 0) profile.window_bytes = cfg.window_bytes;
  // The pipe hands each aggregate straight to sink(); a weak reference
  // keeps the lane's pipe from owning the state that owns it.
  l.pipe = std::make_unique<net::Pipe>(
      sim, &cluster->node(static_cast<std::size_t>(node)),
      &cluster->node(static_cast<std::size_t>(dst)), profile,
      name + "->" + std::to_string(dst),
      [weak = weak_from_this(), dst](net::Message m) {
        if (auto self = weak.lock()) self->sink(dst, std::move(m));
      });
  return l;
}

void SendMux::State::arm(int dst, Lane& l) {
  if (l.interested || l.q.empty()) return;
  l.interested = true;
  interest.push_back(dst);
  work_waiters.notify_one();
}

std::uint64_t SendMux::open_connection(int dst_node) {
  State& st = *st_;
  SV_ASSERT(!st.stopping, "SendMux::open_connection after shutdown");
  SV_ASSERT(dst_node >= 0 &&
                static_cast<std::size_t>(dst_node) < st.cluster->size(),
            "SendMux::open_connection: unknown destination node");
  st.lane(dst_node);  // materialize the pipe
  const std::uint64_t id = st.next_conn++;
  st.conn_dst.emplace(id, dst_node);
  return id;
}

bool SendMux::submit(std::uint64_t conn, std::uint64_t bytes) {
  return submit(conn, bytes, /*buffer=*/0, mem::Payload{});
}

bool SendMux::submit(std::uint64_t conn, std::uint64_t bytes,
                     std::uint64_t buffer, mem::Payload payload) {
  State& st = *st_;
  if (st.stopping) return false;
  auto it = st.conn_dst.find(conn);
  SV_ASSERT(it != st.conn_dst.end(), "SendMux::submit on a closed conn");
  Lane& l = st.lanes.at(it->second);
  if (l.queued_bytes + bytes > st.cfg.queue_cap_bytes) {
    // `payload` dies here: the drop releases its pooled chunk immediately.
    st.c_drops->inc();
    return false;
  }
  MuxRecord r;
  r.conn = conn;
  r.bytes = bytes;
  r.enqueued = st.sim->now();
  r.buffer = buffer;
  r.payload = std::move(payload);
  l.q.push_back(std::move(r));
  l.queued_bytes += bytes;
  st.g_queued_bytes->add(static_cast<std::int64_t>(bytes));
  st.c_submitted->inc();
  st.c_submitted_bytes->inc(bytes);
  st.arm(it->second, l);
  return true;
}

void SendMux::close_connection(std::uint64_t conn) {
  // Queued records still deliver; only the id is retired.
  st_->conn_dst.erase(conn);
}

std::uint64_t SendMux::flush_lane(int dst_node) {
  State& st = *st_;
  auto it = st.lanes.find(dst_node);
  if (it == st.lanes.end()) return 0;
  Lane& l = it->second;
  const std::uint64_t flushed = l.q.size();
  // Destroying the records releases any pooled payload chunks. The lane's
  // interest entry (if armed) stays in the sender's deque; the sender pops
  // it, finds the queue empty, and disarms — the protocol already handles
  // an empty drain.
  st.g_queued_bytes->add(-static_cast<std::int64_t>(l.queued_bytes));
  l.q.clear();
  l.queued_bytes = 0;
  st.c_flushed->inc(flushed);
  return flushed;
}

std::uint64_t SendMux::flush_registrations() {
  State& st = *st_;
  if (st.policy == nullptr || st.policy->cache() == nullptr) return 0;
  return st.policy->cache()->flush(st.sim->now());
}

void SendMux::shutdown() {
  State& st = *st_;
  if (st.stopping) return;
  st.stopping = true;
  st.work_waiters.notify_all();
}

int SendMux::node() const { return st_->node; }

std::size_t SendMux::open_connection_rows() const {
  return st_->conn_dst.size();
}

std::uint64_t SendMux::batches() const { return st_->c_batches->value(); }

std::uint64_t SendMux::drops() const { return st_->c_drops->value(); }

void SendMux::State::sender_loop() {
  while (true) {
    if (interest.empty()) {
      if (stopping) break;
      work_waiters.wait();
      continue;
    }
    const int dst = interest.front();
    interest.pop_front();
    Lane& l = lanes.at(dst);

    // Drain up to the aggregate caps into one fabric message. The first
    // record always fits (a lone oversized record must still ship).
    auto recs = std::make_shared<std::vector<MuxRecord>>();
    std::uint64_t total = 0;
    SimTime policy_cost = SimTime::zero();
    // (buffer, bytes) pins owed a release once the aggregate has shipped.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pinned;
    while (!l.q.empty() && recs->size() < cfg.aggregate_max_msgs) {
      const std::uint64_t need = cfg.header_bytes + l.q.front().bytes;
      if (!recs->empty() && total + need > cfg.aggregate_max_bytes) break;
      MuxRecord r = std::move(l.q.front());
      l.q.pop_front();
      l.queued_bytes -= r.bytes;
      g_queued_bytes->add(-static_cast<std::int64_t>(r.bytes));
      total += need;
      if (policy != nullptr) {
        // Per-record consult (DESIGN.md §14): staging this record into the
        // aggregate costs whatever the policy decides — a bounce copy, a
        // pin, or a cache lookup.
        const mem::CopyVerdict v =
            policy->acquire(sim->now(), r.buffer, r.bytes);
        policy_cost = policy_cost + v.cpu_cost;
        if (v.needs_release) pinned.emplace_back(r.buffer, r.bytes);
      }
      recs->push_back(std::move(r));
    }
    // Re-arm at the tail while the lane still has work: round-robin
    // fairness across destinations, FIFO within a lane.
    if (!l.q.empty()) {
      interest.push_back(dst);
    } else {
      l.interested = false;
    }
    if (recs->empty()) continue;

    if (policy_cost > SimTime::zero()) sim->delay(policy_cost);

    net::Message m;
    m.bytes = total;
    m.tag = recs->front().conn;
    m.meta = recs;
    c_batches->inc();
    c_batch_records->inc(recs->size());
    // Blocking send: fabric flow control (and, behind it, topology uplink
    // queueing) backpressures the whole mux, not a per-connection thread.
    l.pipe->send(std::move(m));

    // Register-on-the-fly pins unpin only after the aggregate is on the
    // wire; the unpin time bills to this sender process.
    SimTime unpin_cost = SimTime::zero();
    for (const auto& [buf, bytes] : pinned) {
      unpin_cost = unpin_cost + policy->release(sim->now(), buf, bytes);
    }
    if (unpin_cost > SimTime::zero()) sim->delay(unpin_cost);
  }
  for (auto& [dst, l] : lanes) {
    if (l.pipe) l.pipe->close();
  }
  drained = true;
}

void SendMux::State::sink(int dst, net::Message m) {
  auto recs = std::any_cast<std::shared_ptr<std::vector<MuxRecord>>>(m.meta);
  for (const MuxRecord& r : *recs) {
    c_delivered->inc();
    sim->obs().note_delivery(r.enqueued, sim->now());
    if (on_delivery) on_delivery(dst, r, sim->now());
  }
}

}  // namespace sv::sockets
