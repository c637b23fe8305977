#include "net/fabric.h"

#include <algorithm>
#include <stdexcept>

namespace sv::net {

Pipe::State::State(sim::Simulation* sim_in, Node* src_in, Node* dst_in,
                   CalibrationProfile profile_in, std::string name_in,
                   DeliveryFn on_delivery_in)
    : sim(sim_in),
      src(src_in),
      dst(dst_in),
      profile(std::move(profile_in)),
      model(profile),
      name(std::move(name_in)),
      window_waiters(sim_in, name + ".window"),
      delivered(sim_in, 0, name + ".delivered_q"),
      on_delivery(std::move(on_delivery_in)) {
  topo = src->topology();
  if (topo != nullptr) {
    fabric_latency = topo->path_latency(src->id(), dst->id());
  }
  obs::Registry& reg = sim->obs().registry;
  // Pipe names are caller-chosen and may repeat; a creation serial keeps
  // per-pipe metric names unique (creation order is deterministic).
  auto& serial = reg.counter("fabric.pipes");
  serial.inc();
  const std::string pl =
      "{pipe=" + name + "#" + std::to_string(serial.value()) + "}";
  const std::string ll = "{link=" + std::to_string(src->id()) + "->" +
                         std::to_string(dst->id()) + "}";
  c_msgs_sent = &reg.counter("fabric.messages_sent" + pl);
  c_bytes_sent = &reg.counter("fabric.bytes_sent" + pl);
  c_frames_retx = &reg.counter("fabric.frames_retransmitted" + pl);
  c_frames_retx_total = &reg.counter("fabric.frames_retransmitted");
  c_frames_link = &reg.counter("fabric.frames" + ll);
  c_frame_bytes_sent_link = &reg.counter("fabric.frame_bytes_sent" + ll);
  c_frame_bytes_recv_link = &reg.counter("fabric.frame_bytes_received" + ll);
  c_wire_ns_link = &reg.counter("fabric.wire_ns" + ll);
  g_in_flight_link = &reg.gauge("fabric.in_flight_bytes" + ll);
  c_msgs_recv_total = &reg.counter("fabric.messages_received");
  h_msg_latency = &reg.histogram("fabric.msg_latency_ns");
}

Pipe::Pipe(sim::Simulation* sim, Node* src, Node* dst,
           CalibrationProfile profile, std::string name,
           DeliveryFn on_delivery)
    : st_(std::make_shared<State>(sim, src, dst, std::move(profile),
                                  std::move(name), std::move(on_delivery))) {}

Pipe::~Pipe() {
  // Stop intake and wake any blocked receiver. Pending stage events co-own
  // the state, so admitted frames still cross and deliver.
  st_->closed = true;
  st_->delivered.close();
}

SimTime Pipe::State::sender_frame_time(const Frame& f) const {
  SimTime t = profile.send_per_seg *
                  static_cast<std::int64_t>(model.segments(f.bytes)) +
              profile.send_per_byte.for_bytes(f.bytes);
  if (f.first) t += profile.send_fixed;  // per-message cost, once
  return t;
}

SimTime Pipe::State::recv_frame_time(const Frame& f) const {
  SimTime t = profile.recv_per_seg *
                  static_cast<std::int64_t>(model.segments(f.bytes)) +
              profile.recv_per_byte.for_bytes(f.bytes);
  if (f.last) t += profile.recv_fixed;  // delivery-to-application cost
  return t;
}

void Pipe::send(Message m) {
  // timeout <= 0 waits forever, so the result is always ok.
  (void)send_for(std::move(m), SimTime::zero());
}

Result<void> Pipe::send_for(Message m, SimTime timeout) {
  State& st = *st_;
  if (st.closed) {
    throw std::logic_error("Pipe[" + st.name + "]::send after close");
  }
  const SimTime deadline = sim::deadline_after(st.sim->now(), timeout);
  m.seq = st.next_seq++;
  m.sent_at = st.sim->now();
  st.c_msgs_sent->inc();
  st.c_bytes_sent->inc(m.bytes);

  const std::uint64_t frame_cap =
      std::max<std::uint64_t>(1, st.profile.pipeline_frame_bytes);
  std::uint64_t remaining = m.bytes;
  bool first = true;
  while (true) {
    const std::uint64_t flen = std::min(remaining, frame_cap);
    remaining -= flen;
    const bool last = remaining == 0;
    // Flow control: block until this frame fits in the window (a frame is
    // always admitted when nothing is in flight, guaranteeing progress).
    const auto window_full = [&st, flen] {
      return st.in_flight_bytes > 0 &&
             st.in_flight_bytes + flen > st.profile.window_bytes;
    };
    while (window_full()) {
      if (!st.window_waiters.wait_until(deadline) && window_full()) {
        return Error::timeout("Pipe[" + st.name +
                              "]: send timed out with the flow-control "
                              "window closed (receiver stalled?)");
      }
    }
    st.in_flight_bytes += flen;
    st.g_in_flight_link->add(static_cast<std::int64_t>(flen));
    st.c_frames_link->inc();
    st.c_frame_bytes_sent_link->inc(flen);
    Frame f;
    f.bytes = flen;
    f.first = first;
    f.last = last;
    if (last) f.msg = std::move(m);
    // Sender-host stage, serialized with other sends from this node.
    st.src->tx_host().use(st.sender_frame_time(f));
    st.admit(std::move(f));
    if (last) break;
    first = false;
  }
  return Result<void>::success();
}

void Pipe::close() {
  State& st = *st_;
  if (st.closed) return;
  st.closed = true;
  Frame f;
  f.eof = true;
  st.admit(std::move(f));
}

std::optional<Message> Pipe::recv() { return st_->delivered.recv(); }

Result<std::optional<Message>> Pipe::recv_for(SimTime timeout) {
  return st_->delivered.recv_for(timeout);
}

std::optional<Message> Pipe::try_recv() { return st_->delivered.try_recv(); }

std::size_t Pipe::pending() const { return st_->delivered.size(); }

bool Pipe::closed() const { return st_->closed; }

const CostModel& Pipe::model() const { return st_->model; }

Node& Pipe::src() const { return *st_->src; }

Node& Pipe::dst() const { return *st_->dst; }

const std::string& Pipe::name() const { return st_->name; }

std::uint64_t Pipe::messages_sent() const {
  return st_->c_msgs_sent->value();
}

std::uint64_t Pipe::bytes_sent() const { return st_->c_bytes_sent->value(); }

std::uint64_t Pipe::frames_retransmitted() const {
  return st_->c_frames_retx->value();
}

void Pipe::State::kick(bool& busy, void (State::*step)()) {
  if (busy) return;
  busy = true;
  sim->engine().schedule(SimTime::zero(),
                         [self = shared_from_this(), step] {
                           ((*self).*step)();
                         });
}

void Pipe::State::admit(Frame f) {
  wire_q.push_back(std::move(f));
  kick(wire_busy, &State::wire_step);
}

void Pipe::State::wire_step() {
  if (wire_q.empty()) {
    wire_busy = false;
    return;
  }
  // EOF takes no wire time; it follows the last data frame into flight.
  if (wire_q.front().eof) {
    wire_launch();
    return;
  }
  wire_start = sim->now();
  wire_faults = nullptr;
  wire_cross();
}

void Pipe::State::wire_cross() {
  // Cross the switch fabric first (queueing on shared uplinks), then
  // occupy the destination's inbound link / DMA path.
  if (topo == nullptr) {
    wire_link_in();
    return;
  }
  topo->traverse(walk, src->id(), dst->id(), wire_q.front().bytes,
                 [self = shared_from_this()] { self->wire_link_in(); });
}

void Pipe::State::wire_link_in() {
  dst->link_in().use(model.wire_time(wire_q.front().bytes),
                     [self = shared_from_this()] { self->wire_crossed(); });
}

void Pipe::State::wire_crossed() {
  if (wire_faults == nullptr) wire_faults = src->fault_injector();
  if (wire_faults == nullptr) {
    wire_done();
    return;
  }
  const FaultDecision d = wire_faults->on_frame(src->id(), dst->id());
  if (d.drop) {
    // Lost on the wire. The fast fabric models the transport *after*
    // recovery, so charge the recovery pause plus a full re-crossing and
    // keep delivery reliable and in-order.
    c_frames_retx->inc();
    c_frames_retx_total->inc();
    sim->obs().tracer.instant(sim->now(), dst->id(), "fabric", "retx",
                              wire_q.front().bytes);
    sim->engine().schedule(d.recovery_delay, [self = shared_from_this()] {
      self->wire_cross();
    });
    return;
  }
  // Jitter is occupancy on this stage (not added propagation) so frames
  // cannot reorder; the pipe's in-order contract holds.
  if (d.extra_delay > SimTime::zero()) {
    sim->engine().schedule(d.extra_delay, [self = shared_from_this()] {
      self->wire_done();
    });
    return;
  }
  wire_done();
}

void Pipe::State::wire_done() {
  const SimTime wire_end = sim->now();
  c_wire_ns_link->inc(static_cast<std::uint64_t>((wire_end - wire_start).ns()));
  sim->obs().tracer.span(wire_start, wire_end, dst->id(), "fabric", "wire",
                         wire_q.front().bytes);
  wire_launch();
}

void Pipe::State::wire_launch() {
  // Propagation is latency, not occupancy: the wire stage moves on at once
  // so back-to-back frames overlap their flight time.
  flight.push_back(std::move(wire_q.front()));
  wire_q.pop_front();
  sim->engine().schedule(profile.propagation + fabric_latency,
                         [self = shared_from_this()] { self->land(); });
  wire_step();
}

void Pipe::State::land() {
  proto_q.push_back(std::move(flight.front()));
  flight.pop_front();
  kick(proto_busy, &State::proto_step);
}

void Pipe::State::proto_step() {
  if (proto_q.empty()) {
    proto_busy = false;
    return;
  }
  if (proto_q.front().eof) {
    proto_q.pop_front();
    if (!delivered.closed()) delivered.close();
    proto_step();
    return;
  }
  // Receiver-side protocol processing (the kernel-TCP bottleneck).
  rx_start = sim->now();
  dst->rx_proto().use(recv_frame_time(proto_q.front()),
                      [self = shared_from_this()] { self->proto_done(); });
}

void Pipe::State::proto_done() {
  Frame f = std::move(proto_q.front());
  proto_q.pop_front();
  sim->obs().tracer.span(rx_start, sim->now(), dst->id(), "fabric",
                         "rx_proto", f.bytes);
  c_frame_bytes_recv_link->inc(f.bytes);
  // Return window credit.
  in_flight_bytes -= f.bytes;
  g_in_flight_link->add(-static_cast<std::int64_t>(f.bytes));
  window_waiters.notify_all();
  if (f.last) {
    f.msg.delivered_at = sim->now();
    sim->obs().note_delivery(f.msg.sent_at, f.msg.delivered_at);
    c_msgs_recv_total->inc();
    h_msg_latency->observe((f.msg.delivered_at - f.msg.sent_at).ns());
    deliver(std::move(f.msg));
  }
  proto_step();
}

void Pipe::State::deliver(Message m) {
  if (!on_delivery) {
    if (!delivered.closed()) delivered.send(std::move(m));
    return;
  }
  deliver_q.push_back(std::move(m));
  kick(deliver_busy, &State::deliver_step);
}

void Pipe::State::deliver_step() {
  while (!deliver_q.empty()) {
    Message m = std::move(deliver_q.front());
    deliver_q.pop_front();
    on_delivery(std::move(m));
  }
  deliver_busy = false;
}

}  // namespace sv::net
