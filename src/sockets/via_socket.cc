#include "sockets/via_socket.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sv::sockets {

DetailedViaSocket::Side::Side(sim::Simulation* sim, int index)
    : credit_wait(sim, "via_sock.credits." + std::to_string(index)),
      delivered(sim, 0, "via_sock.delivered." + std::to_string(index)) {}

DetailedViaSocket::~DetailedViaSocket() = default;

DetailedViaSocket::DetailedViaSocket(std::shared_ptr<PairState> state,
                                     int side)
    : state_(std::move(state)), side_(side) {
  const Side& me = mine();
  const Side& peer = state_->sides[static_cast<std::size_t>(1 - side_)];
  init_obs(state_->sim, me.nic->node().id(), peer.nic->node().id(), "svia");
}

SocketPair DetailedViaSocket::make_pair(via::Nic& a, via::Nic& b,
                                        ViaSocketOptions options) {
  if (options.credits == 0 || options.credit_batch == 0 ||
      options.credit_batch > options.credits) {
    throw std::invalid_argument(
        "ViaSocketOptions: need credits >= credit_batch >= 1");
  }
  auto state = std::make_shared<PairState>(&a.sim(), options);
  auto va = a.create_vi();
  auto vb = b.create_vi();
  via::Nic::connect(*va, *vb);
  state->setup_side(0, a, std::move(va));
  state->setup_side(1, b, std::move(vb));
  for (int i = 0; i < 2; ++i) {
    state->sides[static_cast<std::size_t>(i)].vi->recv_cq().on_completion(
        [state, i] { state->kick_demux(i); });
  }
  std::unique_ptr<SvSocket> sa(new DetailedViaSocket(state, 0));
  std::unique_ptr<SvSocket> sb(new DetailedViaSocket(std::move(state), 1));
  return {std::move(sa), std::move(sb)};
}

void DetailedViaSocket::PairState::setup_side(int i, via::Nic& nic,
                                              std::shared_ptr<via::Vi> vi) {
  Side& s = sides[static_cast<std::size_t>(i)];
  s.nic = &nic;
  s.vi = std::move(vi);
  s.credits = options.credits;
  obs::Registry& reg = sim->obs().registry;
  auto& serial = reg.counter("via_sock.sides");
  serial.inc();
  s.credit_updates = &reg.counter("via_sock.credit_updates{side=" +
                                  std::to_string(serial.value()) + "}");
  // Control slack: credit updates and EOF do not spend data credits, so the
  // pool holds extra descriptors for them.
  const std::uint32_t control_slack =
      options.credits / options.credit_batch + 2;
  // Sanctioned modeled-DMA setup: these pins are connection-lifetime VIA
  // descriptor regions, not per-message staging, and via::Nic charges them
  // to the registration ledger itself.
  s.send_region = nic.register_memory(options.chunk_bytes);  // svlint:allow(SV013)
  s.recv_pool = nic.register_memory(options.chunk_bytes);  // svlint:allow(SV013)
  for (std::uint32_t k = 0; k < options.credits + control_slack; ++k) {
    post_one_recv(i);
  }
}

void DetailedViaSocket::PairState::post_one_recv(int i) {
  Side& s = sides[static_cast<std::size_t>(i)];
  via::Descriptor d;
  d.region = s.recv_pool;
  d.offset = 0;
  d.length = options.chunk_bytes;
  s.vi->post_recv(std::move(d));
}

void DetailedViaSocket::PairState::send_control(int i, imm::Kind kind,
                                                std::uint32_t value,
                                                sim::InlineHandler then) {
  Side& s = sides[static_cast<std::size_t>(i)];
  via::Descriptor d;
  d.region = s.send_region;
  d.length = 0;
  d.immediate = imm::encode(kind, value);
  s.vi->post_send(std::move(d), std::move(then));
}

void DetailedViaSocket::PairState::reap_sends(int i) {
  Side& s = sides[static_cast<std::size_t>(i)];
  while (s.vi->send_cq().poll()) {
  }
}

void DetailedViaSocket::PairState::kick_demux(int i) {
  Side& me = sides[static_cast<std::size_t>(i)];
  if (me.demux_busy) return;
  me.demux_busy = true;
  sim->schedule(SimTime::zero(),
                [self = shared_from_this(), i] { self->demux_step(i); });
}

void DetailedViaSocket::PairState::demux_step(int i) {
  Side& me = sides[static_cast<std::size_t>(i)];
  while (auto c = me.vi->recv_cq().poll()) {
    if (c->status != via::Status::kSuccess) {
      throw std::logic_error("SocketVIA: unexpected VIA receive error: " +
                             std::string(via::status_name(c->status)));
    }
    // Immediately re-post the consumed descriptor to keep the pool full —
    // the invariant that makes credit-gated sends always land.
    post_one_recv(i);
    const imm::Decoded tag = imm::decode(c->immediate);
    switch (tag.kind) {
      case imm::Kind::kCredit:
        // Credits returned for data *this side* previously sent.
        me.credits += tag.value;
        me.credit_wait.notify_all();
        break;
      case imm::Kind::kEof:
        if (!me.delivered.closed()) me.delivered.close();
        break;
      case imm::Kind::kFirst:
        me.pending_chunks = tag.value;
        [[fallthrough]];
      case imm::Kind::kCont:
        --me.pending_chunks;
        // Receiver-side socket bookkeeping delta over raw VIA.
        sim->schedule(SimTime::nanoseconds(100), [self = shared_from_this(),
                                                  i] {
          self->chunk_received(i);
        });
        return;
    }
  }
  me.demux_busy = false;
}

void DetailedViaSocket::PairState::chunk_received(int i) {
  Side& me = sides[static_cast<std::size_t>(i)];
  ++me.consumed_since_credit;
  if (me.pending_chunks == 0) {
    sim->schedule(SimTime::nanoseconds(250),
                  [self = shared_from_this(), i] { self->message_complete(i); });
    return;
  }
  return_credits(i);
}

void DetailedViaSocket::PairState::message_complete(int i) {
  Side& me = sides[static_cast<std::size_t>(i)];
  Side& peer = sides[static_cast<std::size_t>(1 - i)];
  // The message is complete; metadata comes from the peer's side queue, in
  // order.
  if (peer.outgoing_meta.empty()) {
    throw std::logic_error("SocketVIA: data chunk without metadata");
  }
  net::Message m = std::move(peer.outgoing_meta.front());
  peer.outgoing_meta.pop_front();
  m.delivered_at = sim->now();
  sim->obs().note_delivery(m.sent_at, m.delivered_at);
  if (!me.delivered.closed()) {
    me.delivered.send(std::move(m));
  }
  return_credits(i);
}

void DetailedViaSocket::PairState::return_credits(int i) {
  Side& me = sides[static_cast<std::size_t>(i)];
  if (me.consumed_since_credit < options.credit_batch) {
    demux_step(i);
    return;
  }
  send_control(i, imm::Kind::kCredit, me.consumed_since_credit,
               [self = shared_from_this(), i] { self->credits_returned(i); });
}

void DetailedViaSocket::PairState::credits_returned(int i) {
  Side& me = sides[static_cast<std::size_t>(i)];
  reap_sends(i);
  me.credit_updates->inc();
  me.consumed_since_credit = 0;
  demux_step(i);
}

net::Node& DetailedViaSocket::local_node() const {
  return mine().nic->node();
}

std::uint32_t DetailedViaSocket::available_credits() const {
  return mine().credits;
}

std::uint64_t DetailedViaSocket::credit_updates_sent() const {
  return mine().credit_updates == nullptr ? 0
                                          : mine().credit_updates->value();
}

Result<void> DetailedViaSocket::send_for(net::Message m, SimTime timeout) {
  Side& me = mine();
  if (me.send_closed) {
    throw std::logic_error("DetailedViaSocket::send after close");
  }
  const SimTime start = obs_now();
  const SimTime deadline = sim::deadline_after(state_->sim->now(), timeout);
  m.sent_at = state_->sim->now();

  // Selective-copy policy consult (DESIGN.md §14): decides whether this
  // message is staged through the preregistered send_region (legacy /
  // eager) or pinned in place. No policy installed = static-pool default.
  const std::uint64_t buffer = m.buffer;
  const bool release = policy_acquire(buffer, m.bytes);

  const std::uint64_t chunk = state_->options.chunk_bytes;
  const std::uint64_t nchunks =
      std::max<std::uint64_t>(1, (m.bytes + chunk - 1) / chunk);
  if (nchunks > imm::kMaxValue) {
    throw std::invalid_argument("DetailedViaSocket::send: message too large");
  }
  // SocketVIA bookkeeping beyond raw VIA (buffer management, header build):
  // the calibrated delta between the SocketVIA and VIA profiles.
  state_->sim->delay(SimTime::nanoseconds(250));

  const std::uint64_t total = m.bytes;
  me.outgoing_meta.push_back(std::move(m));
  std::uint64_t remaining = total;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    while (me.credits == 0) {
      // Credit-stall detection: a receiver that stops consuming (stalled
      // node, wedged filter) stops returning credits; bail out cleanly
      // instead of blocking this process forever.
      if (!me.credit_wait.wait_until(deadline) && me.credits == 0) {
        // A pinned-on-the-fly region is unpinned even on a failed send.
        if (release) policy_release(buffer, total);
        note_timeout("timeout.credit_stall");
        return Error::timeout(
            "SocketVIA: credit stall — receiver returned no credits "
            "before the send deadline");
      }
    }
    --me.credits;
    const std::uint64_t len = std::min(remaining, chunk);
    remaining -= len;
    via::Descriptor d;
    d.region = me.send_region;
    d.offset = 0;
    d.length = len;
    d.immediate =
        i == 0 ? imm::encode(imm::Kind::kFirst,
                             static_cast<std::uint32_t>(nchunks))
               : imm::encode(imm::Kind::kCont);
    // Per-chunk socket-layer work (the per-segment calibration delta).
    state_->sim->delay(SimTime::nanoseconds(100));
    me.vi->post_send(std::move(d));
    // Reap send completions opportunistically to keep the CQ shallow.
    while (me.vi->send_cq().poll()) {
    }
  }
  if (release) policy_release(buffer, total);
  note_sent(total);
  obs_span(start, "send", total);
  return Result<void>::success();
}

Result<std::optional<net::Message>> DetailedViaSocket::recv_for(
    SimTime timeout) {
  const SimTime start = obs_now();
  auto r = mine().delivered.recv_for(timeout);
  if (r.ok() && r.value()) {
    note_received(r.value()->bytes);
    obs_span(start, "recv", r.value()->bytes);
  } else if (!r.ok()) {
    note_timeout("timeout.recv");
  }
  return r;
}

std::optional<net::Message> DetailedViaSocket::try_recv() {
  auto m = mine().delivered.try_recv();
  if (m) {
    note_received(m->bytes);
  }
  return m;
}

void DetailedViaSocket::close_send() {
  Side& me = mine();
  if (me.send_closed) return;
  me.send_closed = true;
  state_->sim->await("via_sock.eof", [this](sim::InlineHandler done) {
    state_->send_control(side_, imm::Kind::kEof, 0, std::move(done));
  });
  state_->reap_sends(side_);
}

}  // namespace sv::sockets
