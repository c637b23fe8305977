#include "tcpstack/tcp.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"
#include "net/fault.h"

namespace sv::tcpstack {

TcpConnection::TcpConnection(TcpStack* stack, std::string name,
                             TcpOptions options)
    : stack_(stack),
      name_(std::move(name)),
      options_(options),
      rto_current_(options.rto_initial),
      send_space_(&stack->sim(), name_ + ".sndbuf"),
      recv_wait_(&stack->sim(), name_ + ".rcvwait") {
  obs::Registry& reg = stack_->sim().obs().registry;
  // Endpoint names can repeat across independent connect() calls; a
  // creation serial keeps the metric family unique per endpoint (creation
  // order is deterministic, so names are stable per seed).
  auto& serial = reg.counter("tcpstack.connections");
  serial.inc();
  const std::string cl =
      "{conn=" + name_ + "#" + std::to_string(serial.value()) + "}";
  c_bytes_sent_ = &reg.counter("tcpstack.bytes_sent" + cl);
  c_bytes_received_ = &reg.counter("tcpstack.bytes_received" + cl);
  c_segments_sent_ = &reg.counter("tcpstack.segments_sent" + cl);
  c_acks_sent_ = &reg.counter("tcpstack.acks_sent" + cl);
  c_retx_ = &reg.counter("tcpstack.segments_retransmitted" + cl);
  c_rto_expirations_ = &reg.counter("tcpstack.rto_expirations" + cl);
  c_fast_retx_ = &reg.counter("tcpstack.fast_retransmits" + cl);
  c_dup_acks_ = &reg.counter("tcpstack.dup_acks_received" + cl);
  c_ooo_ = &reg.counter("tcpstack.ooo_segments_received" + cl);
}

void TcpConnection::bind_link_obs() {
  const std::string ll = "{link=" + std::to_string(stack_->node().id()) +
                         "->" + std::to_string(peer_->stack_->node().id()) +
                         "}";
  c_retx_link_ =
      &stack_->sim().obs().registry.counter("tcpstack.segments_retransmitted" +
                                            ll);
}

obs::Tracer& TcpConnection::tracer() const {
  return stack_->sim().obs().tracer;
}

int TcpConnection::node_id() const { return stack_->node().id(); }

net::Node& TcpConnection::peer_node() const { return peer_->stack_->node(); }

std::uint64_t TcpConnection::peer_window_available() const {
  const std::uint64_t used = peer_->recv_buf_bytes_ + inflight_bytes_;
  if (used >= options_.recv_buffer) return 0;
  return options_.recv_buffer - used;
}

void TcpConnection::send(std::uint64_t bytes) {
  // Timing-only stream: a virtual payload flows through the exact same
  // segmentation/reassembly machinery as materialized bytes.
  (void)send_payload_for(mem::Payload::virtual_bytes(bytes), SimTime::zero());
}

void TcpConnection::send_payload(mem::Payload payload) {
  (void)send_payload_for(std::move(payload), SimTime::zero());
}

Result<void> TcpConnection::send_for(std::uint64_t bytes, SimTime timeout) {
  return send_payload_for(mem::Payload::virtual_bytes(bytes), timeout);
}

Result<void> TcpConnection::send_payload_for(mem::Payload payload,
                                             SimTime timeout) {
  if (fin_queued_) {
    throw std::logic_error("TcpConnection[" + name_ + "]::send after close");
  }
  const SimTime deadline = sim::deadline_after(stack_->sim().now(), timeout);
  // Syscall entry, then copy into the socket buffer incrementally as ACKs
  // free space — like the kernel, so large writes overlap with transmission
  // instead of degenerating to stop-and-wait.
  stack_->node().tx_host().use(stack_->profile().send_fixed);
  // Copy in bounded quanta so transmission of early bytes overlaps the
  // copying of later ones (as the kernel's skb-at-a-time copy does). The
  // buffered quantum is a zero-copy slice; the user→kernel copy *time* is
  // the send_per_byte charge below, and the copy *event* is counted once
  // per message by the socket layer (mem/ledger.h).
  const std::uint64_t quantum = std::uint64_t{2} * options_.mss;
  const std::uint64_t bytes = payload.size();
  std::uint64_t offset = 0;
  while (offset < bytes) {
    std::uint64_t used = unsent_bytes_ + inflight_bytes_;
    while (used >= options_.send_buffer) {
      const bool woken = send_space_.wait_until(deadline);
      used = unsent_bytes_ + inflight_bytes_;
      if (!woken && used >= options_.send_buffer) {
        return Error::timeout("TcpConnection[" + name_ +
                              "]: send timed out with a full socket buffer "
                              "(peer not ACKing)");
      }
    }
    const std::uint64_t take =
        std::min({bytes - offset, options_.send_buffer - used, quantum});
    stack_->node().tx_host().use(
        stack_->profile().send_per_byte.for_bytes(take));
    unsent_stream_.push(payload.slice(offset, take));
    unsent_bytes_ += take;
    c_bytes_sent_->inc(take);
    offset += take;
    kick_tx();
    // Yield so the send loop can interleave segment transmission with the
    // next copy quantum on the shared host path.
    stack_->sim().delay(SimTime::zero());
  }
  return Result<void>::success();
}

void TcpConnection::close() {
  fin_queued_ = true;
  kick_tx();
}

std::uint64_t TcpConnection::recv(std::uint64_t max) {
  if (max == 0) return 0;
  while (recv_buf_bytes_ == 0 && !fin_received_) {
    recv_wait_.wait();
  }
  if (recv_buf_bytes_ == 0) return 0;  // clean end-of-stream
  // Syscall cost charged once data is deliverable.
  stack_->sim().delay(stack_->profile().recv_fixed);
  const std::uint64_t take = std::min(max, recv_buf_bytes_);
  (void)recv_stream_.pop(take);  // byte-count caller: discard the views
  recv_buf_bytes_ -= take;
  // Window opened: the peer's send loop may resume.
  peer_->kick_tx();
  return take;
}

std::uint64_t TcpConnection::recv_exact(std::uint64_t n) {
  return recv_exact_for(n, SimTime::zero()).value();
}

mem::Payload TcpConnection::recv_exact_payload(std::uint64_t n) {
  return std::move(recv_exact_payload_for(n, SimTime::zero()).value());
}

Result<std::uint64_t> TcpConnection::recv_exact_for(std::uint64_t n,
                                                    SimTime timeout) {
  return recv_exact_impl(n, timeout, nullptr);
}

Result<mem::Payload> TcpConnection::recv_exact_payload_for(std::uint64_t n,
                                                           SimTime timeout) {
  mem::Payload out;
  auto r = recv_exact_impl(n, timeout, &out);
  if (!r.ok()) return r.error();
  return out;
}

Result<std::uint64_t> TcpConnection::recv_exact_impl(std::uint64_t n,
                                                     SimTime timeout,
                                                     mem::Payload* out) {
  if (n == 0) return std::uint64_t{0};
  const SimTime deadline = sim::deadline_after(stack_->sim().now(), timeout);
  // One MSG_WAITALL syscall: a single fixed cost, then drain until n bytes.
  bool charged = false;
  std::uint64_t total = 0;
  while (total < n) {
    while (recv_buf_bytes_ == 0 && !fin_received_) {
      if (!recv_wait_.wait_until(deadline) && recv_buf_bytes_ == 0 &&
          !fin_received_) {
        return Error::timeout("TcpConnection[" + name_ +
                              "]: recv timed out after " +
                              timeout.to_string());
      }
    }
    if (recv_buf_bytes_ == 0) break;  // EOF before n bytes
    if (!charged) {
      stack_->sim().delay(stack_->profile().recv_fixed);
      charged = true;
    }
    const std::uint64_t take = std::min(n - total, recv_buf_bytes_);
    mem::Payload part = recv_stream_.pop(take);
    if (out != nullptr) out->append(part);
    recv_buf_bytes_ -= take;
    total += take;
    peer_->kick_tx();
  }
  return total;
}

void TcpConnection::kick_tx() {
  if (tx_busy_) return;
  tx_busy_ = true;
  stack_->sim().schedule(SimTime::zero(), [this] { tx_step(); });
}

void TcpConnection::tx_step() {
  const std::uint64_t mss = options_.mss;
  // Loss recovery has priority over new data: the RTO handler and fast
  // retransmit only flag the re-send, and it goes out from here, in order
  // with the other transmissions on tx_host.
  if (retx_pending_) {
    retx_pending_ = false;
    if (!unacked_.empty()) {
      retransmit_front();
      return;
    }
  }
  if (unsent_bytes_ == 0) {
    if (fin_queued_ && !fin_sent_) {
      send_segment(0, true);  // pure FIN
      return;
    }
    // Everything delivered and ACKed: the loop is over and stays busy,
    // so later kicks schedule nothing. Otherwise wait for a kick.
    if (!fin_sent_ || !unacked_.empty()) tx_busy_ = false;
    return;
  }
  const std::uint64_t window = peer_window_available();
  if (window == 0) {
    tx_busy_ = false;
    return;
  }
  const std::uint64_t seg = std::min({mss, unsent_bytes_, window});
  // Nagle: hold back a sub-MSS segment while data is in flight, unless
  // this flushes the stream (close pending with nothing more coming).
  if (options_.nagle && seg < mss && seg == unsent_bytes_ &&
      inflight_bytes_ > 0 && !fin_queued_) {
    tx_busy_ = false;
    return;
  }
  unsent_bytes_ -= seg;
  send_segment(seg, fin_queued_ && unsent_bytes_ == 0);
}

void TcpConnection::send_segment(std::uint64_t bytes, bool fin) {
  const std::uint64_t seq = snd_nxt_;
  snd_nxt_ += bytes + (fin ? 1 : 0);  // FIN occupies one sequence number
  inflight_bytes_ += bytes;
  // Slice this segment's bytes off the unsent stream by reference; the
  // retransmit buffer holds the same views (no copy, ever).
  mem::Payload seg_payload;
  if (bytes > 0) {
    SV_DCHECK(unsent_stream_.bytes() >= bytes,
              "unsent stream out of sync with unsent_bytes_");
    seg_payload = unsent_stream_.pop(bytes);
  }
  unacked_.emplace(seq, SentSegment{bytes, fin, seg_payload});
  c_segments_sent_->inc();
  if (fin) {
    fin_sent_ = true;
    tracer().instant(stack_->sim().now(), node_id(), "tcp", "fin_sent", seq);
  }
  // Piggyback any pending ACK for the reverse direction on this data
  // segment (standard TCP behaviour; prevents the Nagle/delayed-ACK
  // stall in request-response traffic).
  bool has_ack = false;
  if (unacked_segments_ > 0) {
    has_ack = true;
    c_acks_sent_->inc();
    unacked_segments_ = 0;
  }
  transmit(Segment{this, seq, bytes, rcv_nxt_, has_ack, fin,
                   std::move(seg_payload)});
}

void TcpConnection::retransmit_front() {
  const auto it = unacked_.begin();
  SV_DCHECK(it->first == snd_una_,
            "earliest unacked segment must start at snd_una");
  c_retx_->inc();
  if (c_retx_link_ != nullptr) c_retx_link_->inc();
  tracer().instant(stack_->sim().now(), node_id(), "tcp", "retx",
                   it->second.bytes);
  transmit(Segment{this, it->first, it->second.bytes, rcv_nxt_, false,
                   it->second.fin, it->second.payload});
}

void TcpConnection::transmit(Segment seg) {
  tx_seg_ = std::move(seg);
  // Per-segment kernel TX work (header build, checksum, queueing).
  stack_->node().tx_host().use(stack_->profile().send_per_seg,
                               [this] { transmitted(); });
}

void TcpConnection::transmitted() {
  stack_->send_to_wire(std::move(tx_seg_));
  arm_rto();
  tx_step();
}

void TcpConnection::arm_rto() {
  if (rto_armed_ || unacked_.empty()) return;
  rto_armed_ = true;
  rto_event_ =
      stack_->sim().schedule(rto_current_, [this] { on_rto_expiry(); });
}

void TcpConnection::cancel_rto() {
  if (!rto_armed_) return;
  rto_armed_ = false;
  stack_->sim().cancel(rto_event_);
}

void TcpConnection::on_rto_expiry() {
  rto_armed_ = false;
  if (unacked_.empty()) return;  // ACK landed at the same instant
  c_rto_expirations_->inc();
  tracer().instant(stack_->sim().now(), node_id(), "tcp", "rto_expiry",
                   static_cast<std::uint64_t>(rto_current_.ns()));
  if (!in_recovery_episode_) {
    in_recovery_episode_ = true;
    recovery_started_ = stack_->sim().now();
  }
  rto_current_ = std::min(rto_current_ * 2, options_.rto_max);
  retx_pending_ = true;
  kick_tx();
}

void TcpConnection::on_segment(std::uint64_t seq, std::uint64_t bytes,
                               bool fin, mem::Payload payload) {
  const std::uint64_t seg_end = seq + bytes + (fin ? 1 : 0);
  if (seg_end <= rcv_nxt_) {
    // Spurious retransmission of fully-received data: re-ACK so the sender
    // can advance.
    send_ack_now();
    return;
  }
  if (seq > rcv_nxt_) {
    // A gap: hold for reassembly and emit an immediate duplicate ACK (the
    // signal fast retransmit counts). Fixed segment boundaries make the
    // map key collision-free; re-inserts of the same segment are no-ops.
    ooo_segments_.emplace(seq, OooSegment{bytes, fin, std::move(payload)});
    c_ooo_->inc();
    send_ack_now();
    return;
  }
  SV_DCHECK(seq == rcv_nxt_, "partial segment overlap is impossible with "
                             "fixed retransmit boundaries");
  accept_segment(bytes, fin, std::move(payload));
  // Drain the reassembly queue now contiguous with rcv_nxt.
  while (!ooo_segments_.empty()) {
    const auto it = ooo_segments_.begin();
    if (it->first > rcv_nxt_) break;
    if (it->first == rcv_nxt_) {
      accept_segment(it->second.bytes, it->second.fin,
                     std::move(it->second.payload));
    }
    ooo_segments_.erase(it);
  }
  recv_wait_.notify_all();
  maybe_ack();
}

void TcpConnection::accept_segment(std::uint64_t bytes, bool fin,
                                   mem::Payload payload) {
  SV_DCHECK(payload.size() == bytes, "segment payload/byte-count mismatch");
  rcv_nxt_ += bytes + (fin ? 1 : 0);
  recv_buf_bytes_ += bytes;
  recv_stream_.push(std::move(payload));
  c_bytes_received_->inc(bytes);
  if (fin) {
    fin_received_ = true;
    tracer().instant(stack_->sim().now(), node_id(), "tcp", "fin_received",
                     rcv_nxt_);
  }
  ++unacked_segments_;
}

void TcpConnection::maybe_ack() {
  if (!options_.delayed_ack || unacked_segments_ >= 2 || fin_received_) {
    send_ack_now();
    return;
  }
  if (!ack_timer_armed_) {
    ack_timer_armed_ = true;
    stack_->sim().schedule(options_.delayed_ack_timeout, [this] {
      ack_timer_armed_ = false;
      if (unacked_segments_ > 0) send_ack_now();
    });
  }
}

void TcpConnection::send_ack_now() {
  // Pure ACKs bypass the socket buffer and tx_host; they go straight to the
  // wire (the kernel generates them in interrupt context).
  stack_->send_to_wire(Segment{this, 0, 0, rcv_nxt_, true, false});
  c_acks_sent_->inc();
  unacked_segments_ = 0;
}

void TcpConnection::on_ack(std::uint64_t ackno, bool pure) {
  if (ackno > snd_una_) {
    // Forward progress: retire fully-covered segments, reset the dup-ACK
    // count and the RTO backoff, and restart the timer for what remains.
    snd_una_ = ackno;
    while (!unacked_.empty()) {
      const auto it = unacked_.begin();
      const std::uint64_t end =
          it->first + it->second.bytes + (it->second.fin ? 1 : 0);
      if (end > ackno) break;
      inflight_bytes_ -= it->second.bytes;
      unacked_.erase(it);
    }
    dup_acks_ = 0;
    if (in_recovery_ && ackno >= recover_seq_) in_recovery_ = false;
    if (in_recovery_episode_ && !in_recovery_) {
      // Forward progress with fast recovery (if any) complete: the episode
      // that began at the first loss signal is over.
      in_recovery_episode_ = false;
      tracer().span(recovery_started_, stack_->sim().now(), node_id(), "tcp",
                    "recovery", ackno);
    }
    cancel_rto();
    rto_current_ = options_.rto_initial;
    arm_rto();  // no-op when everything is acknowledged
    send_space_.notify_all();
    kick_tx();
    return;
  }
  if (pure && ackno == snd_una_ && !unacked_.empty()) {
    c_dup_acks_->inc();
    if (++dup_acks_ == 3) {
      // Fast retransmit: three duplicate ACKs imply the next segment was
      // lost while later ones arrived; re-send without waiting for the RTO.
      // While in recovery, later dup ACKs for the same hole are ignored —
      // they are echoes of segments already in flight, not new losses.
      dup_acks_ = 0;
      if (!in_recovery_) {
        in_recovery_ = true;
        recover_seq_ = snd_nxt_;
        c_fast_retx_->inc();
        tracer().instant(stack_->sim().now(), node_id(), "tcp", "fast_retx",
                         ackno);
        if (!in_recovery_episode_) {
          in_recovery_episode_ = true;
          recovery_started_ = stack_->sim().now();
        }
        retx_pending_ = true;
        kick_tx();
      }
    }
  }
}

TcpStack::TcpStack(sim::Simulation* sim, net::Node* node,
                   net::CalibrationProfile profile)
    : sim_(sim), node_(node), profile_(std::move(profile)), model_(profile_) {}

void TcpStack::kick(bool& busy, void (TcpStack::*step)()) {
  if (busy) return;
  busy = true;
  sim_->schedule(SimTime::zero(), [this, step] { (this->*step)(); });
}

void TcpStack::send_to_wire(Segment seg) {
  wire_q_.push_back(std::move(seg));
  kick(wire_busy_, &TcpStack::wire_step);
}

void TcpStack::wire_step() {
  if (wire_q_.empty()) {
    wire_busy_ = false;
    return;
  }
  const Segment& seg = wire_q_.front();
  // Data segments occupy the inbound link for payload + headers; pure
  // ACKs cost one header's worth.
  seg.sender->peer_->stack_->node_->link_in().use(
      model_.wire_time(seg.bytes), [this] { wire_done(); });
}

void TcpStack::wire_done() {
  Segment seg = std::move(wire_q_.front());
  wire_q_.pop_front();
  SimTime extra = SimTime::zero();
  if (net::FaultInjector* inj = node_->fault_injector()) {
    const net::FaultDecision d =
        inj->on_frame(node_->id(), seg.sender->peer_->stack_->node_->id());
    if (d.drop) {  // lost on the wire: TCP recovery takes over
      wire_step();
      return;
    }
    extra = d.extra_delay;
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(flight_.size());
    flight_.push_back(std::move(seg));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    flight_[slot] = std::move(seg);
  }
  sim_->schedule(profile_.propagation + extra, [this, slot] { land(slot); });
  wire_step();
}

void TcpStack::land(std::uint32_t slot) {
  TcpStack* dest = flight_[slot].sender->peer_->stack_;
  dest->rx_q_.push_back(std::move(flight_[slot]));
  free_slots_.push_back(slot);
  dest->kick(dest->rx_busy_, &TcpStack::rx_step);
}

void TcpStack::rx_step() {
  if (rx_q_.empty()) {
    rx_busy_ = false;
    return;
  }
  rx_cur_ = std::move(rx_q_.front());
  rx_q_.pop_front();
  if (rx_cur_.bytes > 0 || rx_cur_.fin) {
    // Interrupt + TCP/IP input + checksum + copy to the socket buffer.
    node_->rx_proto().use(
        profile_.recv_per_seg + profile_.recv_per_byte.for_bytes(rx_cur_.bytes),
        [this] { rx_data_done(); });
    return;
  }
  rx_ack();
}

void TcpStack::rx_data_done() {
  rx_cur_.sender->peer_->on_segment(rx_cur_.seq, rx_cur_.bytes, rx_cur_.fin,
                                    std::move(rx_cur_.payload));
  rx_ack();
}

void TcpStack::rx_ack() {
  if (!rx_cur_.has_ack) {
    rx_step();
    return;
  }
  // ACK processing is cheap but not free.
  node_->rx_proto().use(SimTime::microseconds(1), [this] { rx_ack_done(); });
}

void TcpStack::rx_ack_done() {
  rx_cur_.sender->peer_->on_ack(rx_cur_.ack,
                                rx_cur_.bytes == 0 && !rx_cur_.fin);
  rx_step();
}

std::pair<std::shared_ptr<TcpConnection>, std::shared_ptr<TcpConnection>>
TcpStack::connect(TcpStack& client, TcpStack& server, TcpOptions options) {
  // Three-way handshake: 1.5 RTT of small-message exchanges charged to the
  // connecting process.
  if (client.sim_->current() != nullptr) {
    client.sim_->delay(client.model_.one_way(0) * 3);
  }
  const auto id = client.next_conn_id_++;
  auto c = std::make_shared<TcpConnection>(
      &client, client.node_->name() + ".tcp" + std::to_string(id), options);
  auto s = std::make_shared<TcpConnection>(
      &server, server.node_->name() + ".tcp" + std::to_string(id), options);
  c->peer_ = s.get();
  s->peer_ = c.get();
  c->bind_link_obs();
  s->bind_link_obs();
  client.connections_.push_back(c);
  server.connections_.push_back(s);
  return {c, s};
}

}  // namespace sv::tcpstack
