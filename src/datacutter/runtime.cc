#include "datacutter/runtime.h"

#include <algorithm>
#include <stdexcept>

#include "datacutter/local_socket.h"

namespace sv::dc {
namespace {

constexpr std::uint64_t kKindData = 0;
constexpr std::uint64_t kKindMarker = 1;
constexpr std::uint64_t kKindAck = 2;

std::uint64_t encode_tag(std::uint64_t kind, std::uint64_t uow_id) {
  return kind | (uow_id << 8);
}
std::uint64_t tag_kind(std::uint64_t tag) { return tag & 0xff; }
std::uint64_t tag_uow(std::uint64_t tag) { return tag >> 8; }

}  // namespace

struct Runtime::Core {
  Core(sim::Simulation* sim_in, RuntimeOptions options_in)
      : sim(sim_in),
        options(options_in),
        completions(sim_in, 0, "dc.completions") {}
  sim::Simulation* sim;
  RuntimeOptions options;
  /// Metric-label prefix `r<serial>.` distinguishing this Runtime's copies
  /// from other Runtimes sharing the simulation registry.
  std::string obs_prefix;
  sim::Channel<UowCompletion> completions;
  /// Copies whose run loop has not finished yet; the last one out closes
  /// `completions` so timed waiters see kClosed rather than a timeout.
  std::size_t live_copies = 0;
  // distribution counters: [stream][producer copy][consumer copy]
  std::vector<std::vector<std::vector<std::uint64_t>>> distribution;
};

struct Runtime::CopyState {
  std::shared_ptr<Core> core;
  const FilterSpec* spec = nullptr;  // points into owned_group
  std::shared_ptr<const FilterGroup> owned_group;
  std::size_t copy = 0;
  net::Node* node = nullptr;
  std::unique_ptr<Filter> filter;
  std::unique_ptr<ContextImpl> ctx;
  std::unique_ptr<sim::Channel<Uow>> uow_queue;  // source copies only
  bool is_source = false;
  bool is_sink = false;

  /// `r<k>.<filter><copy>` — the {copy=...} label of this copy's metrics.
  std::string obs_label;
  obs::Counter* c_buffers_in = nullptr;
  obs::Counter* c_buffers_out = nullptr;
  /// Sim-time spent blocked on the fan-in queue waiting for upstream data.
  obs::Counter* c_blocked_ns = nullptr;
  /// Sim-time a DD producer spent stalled at the unacknowledged-buffer cap.
  obs::Counter* c_stall_ns = nullptr;

  struct OutPort {
    const StreamSpec* spec = nullptr;  // points into owned_group
    std::size_t stream_idx = 0;
    std::vector<std::unique_ptr<sockets::SvSocket>> socks;
    std::vector<std::int64_t> unacked;
    std::size_t rr_next = 0;
    std::unique_ptr<sim::WaitQueue> ack_wait;  // DD producers block here
    /// Total unacknowledged buffers across consumers (DD back-pressure
    /// depth; max_value() is the high-water mark).
    obs::Gauge* g_unacked = nullptr;
  };
  struct InPort {
    const StreamSpec* spec = nullptr;
    std::size_t stream_idx = 0;
    std::vector<std::unique_ptr<sockets::SvSocket>> socks;
    /// Fan-in item: endpoint index + message (nullopt = endpoint closed).
    struct Item {
      std::size_t ep;
      std::optional<net::Message> msg;
    };
    std::unique_ptr<sim::Channel<Item>> merged;
    /// Items received for a *future* UOW while this endpoint is done with
    /// the current one (nullopt entries are deferred close sentinels).
    std::vector<std::deque<std::optional<net::Message>>> pending;
    std::vector<bool> eow;
    std::vector<bool> closed;
    std::uint64_t markers_this_uow = 0;
    bool eos = false;
    /// Fan-in queue depth (messages landed but not yet read by the filter).
    obs::Gauge* g_queue_depth = nullptr;
  };
  std::vector<OutPort> outputs;
  std::vector<InPort> inputs;
};

class Runtime::ContextImpl final : public FilterContext {
 public:
  explicit ContextImpl(CopyState* cs) : cs_(cs), core_(cs->core.get()) {}

  std::optional<DataBuffer> read(std::size_t input) override {
    if (input >= cs_->inputs.size()) {
      throw std::out_of_range("FilterContext::read: no such input stream");
    }
    auto& port = cs_->inputs[input];
    while (true) {
      // 1. Serve buffered items of endpoints still active in this UOW.
      bool handled_control = false;
      for (std::size_t k = 0; k < port.pending.size(); ++k) {
        if (port.eow[k] || port.pending[k].empty()) continue;
        auto item = std::move(port.pending[k].front());
        port.pending[k].pop_front();
        if (!item) {
          port.closed[k] = true;
          port.eow[k] = true;
          handled_control = true;
          break;
        }
        if (auto buf = handle(port, k, std::move(*item))) return buf;
        handled_control = true;
        break;
      }
      if (handled_control) continue;

      // 2. All endpoints done with the current UOW?
      const bool all_done = std::all_of(port.eow.begin(), port.eow.end(),
                                        [](bool b) { return b; });
      if (all_done) {
        uow_real_ = port.markers_this_uow > 0;
        port.markers_this_uow = 0;
        bool pending_empty = true;
        for (const auto& q : port.pending) pending_empty &= q.empty();
        const bool all_closed = std::all_of(
            port.closed.begin(), port.closed.end(), [](bool b) { return b; });
        for (std::size_t k = 0; k < port.eow.size(); ++k) {
          port.eow[k] = port.closed[k];
        }
        if (all_closed && pending_empty) port.eos = true;
        return std::nullopt;
      }

      // 3. Block for the next fan-in item.
      const SimTime block_start = core_->sim->now();
      auto r = port.merged->recv_for(core_->options.io_timeout);
      if (!r.ok()) {
        throw std::runtime_error(copy_label() + ": " + r.error().message);
      }
      std::optional<CopyState::InPort::Item> item = std::move(r.value());
      cs_->c_blocked_ns->inc(
          static_cast<std::uint64_t>((core_->sim->now() - block_start).ns()));
      if (!item) return std::nullopt;  // defensive: merged never closes
      if (item->msg) port.g_queue_depth->add(-1);
      if (!item->msg) {
        if (port.eow[item->ep]) {
          port.pending[item->ep].push_back(std::nullopt);
        } else {
          port.closed[item->ep] = true;
          port.eow[item->ep] = true;
        }
        continue;
      }
      if (port.eow[item->ep]) {
        // Belongs to a future UOW; defer in arrival order.
        port.pending[item->ep].push_back(std::move(*item->msg));
        continue;
      }
      if (auto buf = handle(port, item->ep, std::move(*item->msg))) {
        return buf;
      }
    }
  }

  void write(std::size_t output, DataBuffer buffer) override {
    if (output >= cs_->outputs.size()) {
      throw std::out_of_range("FilterContext::write: no such output stream");
    }
    auto& port = cs_->outputs[output];
    core_->sim->delay(core_->options.write_overhead);
    std::size_t target = 0;
    if (port.spec->policy == SchedPolicy::kRoundRobin) {
      target = port.rr_next++ % port.socks.size();
    } else {
      // Demand-driven: the copy with the fewest unacknowledged buffers;
      // block while every copy is at the outstanding-buffer cap.
      const SimTime stall_start = core_->sim->now();
      while (true) {
        target = 0;
        for (std::size_t c = 1; c < port.socks.size(); ++c) {
          if (port.unacked[c] < port.unacked[target]) target = c;
        }
        if (core_->options.dd_max_unacked <= 0 ||
            port.unacked[target] < core_->options.dd_max_unacked) {
          break;
        }
        // Every consumer copy is at the outstanding-buffer cap. With an
        // i/o deadline (restarted on every wake-up), a cluster-wide wedge
        // (all consumers stalled) surfaces as an error instead of blocking
        // this copy forever.
        const SimTime deadline = sim::deadline_after(
            core_->sim->now(), core_->options.io_timeout);
        if (!port.ack_wait->wait_until(deadline) &&
            port.unacked[target] >= core_->options.dd_max_unacked) {
          throw std::runtime_error(
              copy_label() +
              ": demand-driven write timed out with every consumer at "
              "the unacknowledged-buffer cap");
        }
      }
      cs_->c_stall_ns->inc(static_cast<std::uint64_t>(
          (core_->sim->now() - stall_start).ns()));
    }
    buffer.uow_id = current_uow_.id;
    buffer.created_at = core_->sim->now();
    net::Message msg;
    msg.bytes = buffer.bytes;
    msg.tag = encode_tag(kKindData, current_uow_.id);
    msg.payload = buffer.payload;
    msg.meta = std::move(buffer);
    timed_send(*port.socks[target], std::move(msg));
    ++port.unacked[target];
    port.g_unacked->add(1);
    cs_->c_buffers_out->inc();
    ++core_->distribution[port.stream_idx][cs_->copy][target];
  }

  void compute(SimTime work) override { cs_->node->compute(work); }

  [[nodiscard]] const Uow& uow() const override { return current_uow_; }

  [[nodiscard]] bool at_end_of_stream() const override {
    if (cs_->inputs.empty()) return false;
    return std::all_of(cs_->inputs.begin(), cs_->inputs.end(),
                       [](const auto& p) { return p.eos; });
  }

  [[nodiscard]] std::size_t copy_index() const override { return cs_->copy; }
  [[nodiscard]] std::size_t input_count() const override {
    return cs_->inputs.size();
  }
  [[nodiscard]] std::size_t output_count() const override {
    return cs_->outputs.size();
  }
  [[nodiscard]] net::Node& node() const override { return *cs_->node; }
  [[nodiscard]] sim::Simulation& sim() const override { return *core_->sim; }

  // --- runtime-internal ---
  void begin_uow(Uow uow_in) {
    current_uow_ = std::move(uow_in);
    uow_real_ = true;
  }
  void send_markers() {
    for (auto& port : cs_->outputs) {
      for (auto& sock : port.socks) {
        net::Message m;
        m.bytes = core_->options.marker_bytes;
        m.tag = encode_tag(kKindMarker, current_uow_.id);
        timed_send(*sock, std::move(m));
      }
    }
  }
  [[nodiscard]] bool last_uow_real() const { return uow_real_; }
  [[nodiscard]] std::uint64_t completed_uow_id() const {
    return current_uow_.id;
  }

 private:
  [[nodiscard]] std::string copy_label() const {
    return "DataCutter[" + cs_->spec->name + std::to_string(cs_->copy) + "]";
  }

  /// Send honouring RuntimeOptions::io_timeout; a timed-out transport
  /// (stalled peer) kills this filter process with a descriptive error
  /// rather than hanging it.
  void timed_send(sockets::SvSocket& sock, net::Message m) {
    auto r = sock.send_for(std::move(m), core_->options.io_timeout);
    if (!r.ok()) {
      throw std::runtime_error(copy_label() + ": " + r.error().message);
    }
  }

  std::optional<DataBuffer> handle(CopyState::InPort& port, std::size_t ep,
                                   net::Message msg) {
    const auto kind = tag_kind(msg.tag);
    const auto uow_id = tag_uow(msg.tag);
    if (kind == kKindMarker) {
      port.eow[ep] = true;
      ++port.markers_this_uow;
      current_uow_.id = uow_id;
      return std::nullopt;
    }
    if (kind != kKindData) {
      throw std::logic_error("Runtime: unexpected message kind on stream");
    }
    current_uow_.id = uow_id;
    cs_->c_buffers_in->inc();
    // DD: acknowledge when processing begins (Section 4.1).
    if (port.spec->policy == SchedPolicy::kDemandDriven) {
      net::Message ack;
      ack.bytes = core_->options.ack_bytes;
      ack.tag = encode_tag(kKindAck, uow_id);
      timed_send(*port.socks[ep], std::move(ack));
    }
    core_->sim->delay(core_->options.read_overhead);
    return std::any_cast<DataBuffer>(std::move(msg.meta));
  }

  CopyState* cs_;
  Core* core_;
  Uow current_uow_;
  bool uow_real_ = false;
};

Runtime::Runtime(sim::Simulation* sim, net::Cluster* cluster,
                 sockets::SocketFactory* factory, FilterGroup group,
                 RuntimeOptions options)
    : sim_(sim),
      cluster_(cluster),
      factory_(factory),
      group_(std::move(group)),
      core_(std::make_shared<Core>(sim, options)) {
  group_.validate();
  auto& serial = sim_->obs().registry.counter("dc.runtimes");
  serial.inc();
  core_->obs_prefix = "r" + std::to_string(serial.value()) + ".";
}

Runtime::~Runtime() = default;

const RuntimeOptions& Runtime::options() const { return core_->options; }

void Runtime::start() {
  if (started_) throw std::logic_error("Runtime::start called twice");
  started_ = true;

  // The spawned processes reference FilterSpec/StreamSpec objects; share
  // one immutable copy of the group so those references outlive `this`.
  auto shared_group = std::make_shared<const FilterGroup>(group_);

  // Create copy states.
  std::map<std::string, std::vector<std::shared_ptr<CopyState>>> by_filter;
  for (const auto& spec : shared_group->filters()) {
    const auto inputs = shared_group->inputs_of(spec.name);
    const auto outputs = shared_group->outputs_of(spec.name);
    for (std::size_t c = 0; c < spec.placement.size(); ++c) {
      auto cs = std::make_shared<CopyState>();
      cs->core = core_;
      cs->owned_group = shared_group;
      cs->spec = &spec;
      cs->copy = c;
      cs->node = &cluster_->node(spec.placement[c]);
      cs->filter = spec.make();
      cs->is_source = inputs.empty();
      cs->is_sink = outputs.empty();
      cs->obs_label = core_->obs_prefix + spec.name + std::to_string(c);
      auto& reg = sim_->obs().registry;
      cs->c_buffers_in =
          &reg.counter("dc.buffers_in{copy=" + cs->obs_label + "}");
      cs->c_buffers_out =
          &reg.counter("dc.buffers_out{copy=" + cs->obs_label + "}");
      cs->c_blocked_ns =
          &reg.counter("dc.blocked_ns{copy=" + cs->obs_label + "}");
      cs->c_stall_ns =
          &reg.counter("dc.stall_ns{copy=" + cs->obs_label + "}");
      if (cs->is_source) {
        cs->uow_queue = std::make_unique<sim::Channel<Uow>>(
            sim_, 0, spec.name + std::to_string(c) + ".uows");
        source_copies_.push_back(cs);
      }
      by_filter[spec.name].push_back(cs);
      copies_.push_back(std::move(cs));
    }
  }

  // Create stream connections and ports.
  core_->distribution.resize(shared_group->streams().size());
  for (std::size_t s = 0; s < shared_group->streams().size(); ++s) {
    const auto& stream = shared_group->streams()[s];
    auto& producers = by_filter[stream.from];
    auto& consumers = by_filter[stream.to];
    core_->distribution[s].assign(
        producers.size(), std::vector<std::uint64_t>(consumers.size(), 0));

    for (auto& p : producers) {
      CopyState::OutPort port;
      port.spec = &stream;
      port.stream_idx = s;
      port.socks.resize(consumers.size());
      port.unacked.assign(consumers.size(), 0);
      port.ack_wait = std::make_unique<sim::WaitQueue>(
          sim_, stream.from + std::to_string(p->copy) + ".acks" +
                    std::to_string(s));
      port.g_unacked = &sim_->obs().registry.gauge(
          "dc.unacked{port=" + p->obs_label + ".out" + std::to_string(s) +
          "}");
      p->outputs.push_back(std::move(port));
    }
    for (auto& c : consumers) {
      CopyState::InPort port;
      port.spec = &stream;
      port.stream_idx = s;
      port.socks.resize(producers.size());
      port.merged = std::make_unique<sim::Channel<CopyState::InPort::Item>>(
          sim_, 0,
          stream.to + std::to_string(c->copy) + ".in" + std::to_string(s));
      port.pending.resize(producers.size());
      port.eow.assign(producers.size(), false);
      port.closed.assign(producers.size(), false);
      port.g_queue_depth = &sim_->obs().registry.gauge(
          "dc.queue_depth{port=" + c->obs_label + ".in" + std::to_string(s) +
          "}");
      c->inputs.push_back(std::move(port));
    }
    for (std::size_t p = 0; p < producers.size(); ++p) {
      for (std::size_t c = 0; c < consumers.size(); ++c) {
        const std::string name = stream.from + std::to_string(p) + "-" +
                                 stream.to + std::to_string(c) + ".s" +
                                 std::to_string(s);
        sockets::SocketPair pair;
        if (producers[p]->node == consumers[c]->node) {
          pair = LocalSocket::make_pair(sim_, producers[p]->node, name);
        } else {
          pair = factory_->connect(
              static_cast<std::size_t>(producers[p]->node->id()),
              static_cast<std::size_t>(consumers[c]->node->id()),
              core_->options.transport);
        }
        producers[p]->outputs.back().socks[c] = std::move(pair.first);
        consumers[c]->inputs.back().socks[p] = std::move(pair.second);
      }
    }
  }

  // Fan-in processes (one per consumer endpoint) and DD ack drains (one per
  // producer endpoint).
  for (const auto& cs : copies_) {
    for (std::size_t i = 0; i < cs->inputs.size(); ++i) {
      for (std::size_t k = 0; k < cs->inputs[i].socks.size(); ++k) {
        sim_->spawn(cs->spec->name + std::to_string(cs->copy) + ".fanin" +
                        std::to_string(i) + "." + std::to_string(k),
                    [cs, i, k] {
                      auto& port = cs->inputs[i];
                      while (auto m = port.socks[k]->recv()) {
                        port.g_queue_depth->add(1);
                        port.merged->send(
                            CopyState::InPort::Item{k, std::move(*m)});
                      }
                      port.merged->send(
                          CopyState::InPort::Item{k, std::nullopt});
                    });
      }
    }
    for (std::size_t o = 0; o < cs->outputs.size(); ++o) {
      if (cs->outputs[o].spec->policy != SchedPolicy::kDemandDriven) continue;
      for (std::size_t c = 0; c < cs->outputs[o].socks.size(); ++c) {
        sim_->spawn(cs->spec->name + std::to_string(cs->copy) + ".ackdrain" +
                        std::to_string(o) + "." + std::to_string(c),
                    [cs, o, c] {
                      auto& port = cs->outputs[o];
                      while (auto m = port.socks[c]->recv()) {
                        if (tag_kind(m->tag) != kKindAck) {
                          throw std::logic_error(
                              "Runtime: non-ack on producer return path");
                        }
                        --port.unacked[c];
                        port.g_unacked->add(-1);
                        port.ack_wait->notify_all();
                      }
                    });
      }
    }
  }

  // Filter-copy processes.
  core_->live_copies = copies_.size();
  for (const auto& cs : copies_) {
    cs->ctx = std::make_unique<ContextImpl>(cs.get());
    sim_->spawn(cs->spec->name + std::to_string(cs->copy),
                [cs] { run_copy(cs); });
  }
}

void Runtime::run_copy(const std::shared_ptr<CopyState>& cs) {
  ContextImpl& ctx = *cs->ctx;
  Core& core = *cs->core;
  // Busy timeline: one `dc.process` span per filter invocation on the
  // copy's node (blocked/stalled slices inside are counted by
  // dc.blocked_ns / dc.stall_ns).
  auto process_once = [&cs, &core, &ctx] {
    const SimTime t0 = core.sim->now();
    cs->filter->process(ctx);
    core.sim->obs().tracer.span(t0, core.sim->now(), cs->node->id(), "dc",
                                "process", ctx.completed_uow_id());
  };
  cs->filter->init(ctx);
  if (cs->is_source) {
    while (auto uow = cs->uow_queue->recv()) {
      ctx.begin_uow(std::move(*uow));
      process_once();
      ctx.send_markers();
      if (cs->is_sink) {
        core.completions.send(UowCompletion{ctx.completed_uow_id(),
                                            cs->spec->name, cs->copy,
                                            core.sim->now()});
      }
    }
  } else {
    while (!ctx.at_end_of_stream()) {
      process_once();
      if (ctx.last_uow_real()) {
        ctx.send_markers();
        if (cs->is_sink) {
          core.completions.send(UowCompletion{ctx.completed_uow_id(),
                                              cs->spec->name, cs->copy,
                                              core.sim->now()});
        }
      }
    }
  }
  cs->filter->finalize(ctx);
  for (auto& port : cs->outputs) {
    for (auto& sock : port.socks) sock->close_send();
  }
  if (--core.live_copies == 0) core.completions.close();
}

void Runtime::submit(Uow uow) {
  if (!started_) throw std::logic_error("Runtime::submit before start");
  for (const auto& src : source_copies_) {
    src->uow_queue->send(uow);
  }
}

void Runtime::close_input() {
  for (const auto& src : source_copies_) {
    if (!src->uow_queue->closed()) src->uow_queue->close();
  }
}

std::optional<UowCompletion> Runtime::wait_completion() {
  // A zero timeout waits forever, so the only error is kClosed.
  auto r = wait_completion_for(SimTime::zero());
  if (!r.ok()) return std::nullopt;
  return std::move(r.value());
}

Result<UowCompletion> Runtime::wait_completion_for(SimTime timeout) {
  auto r = core_->completions.recv_for(timeout);
  if (!r.ok()) return r.error();
  if (!r.value()) {
    return Error::closed("Runtime: completion stream closed");
  }
  return std::move(*r.value());
}

std::vector<std::vector<std::uint64_t>> Runtime::distribution(
    std::size_t stream_idx) const {
  return core_->distribution.at(stream_idx);
}

}  // namespace sv::dc
