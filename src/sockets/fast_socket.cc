#include "sockets/fast_socket.h"

namespace sv::sockets {
namespace {

/// Kernel TCP is the only fast-model transport that copies payload across
/// the user/kernel boundary (once per side per message); VIA, SocketVIA
/// and RDMA DMA straight from registered user buffers. The per-byte *time*
/// of these copies is already inside the calibrated profile; here the
/// *events* are counted (DESIGN.md §10).
bool transport_copies(net::Transport t) {
  return t == net::Transport::kKernelTcp;
}

}  // namespace

SocketPair FastSocket::make_pair(sim::Simulation* sim, net::Node* a,
                                 net::Node* b, net::Transport transport,
                                 net::CalibrationProfile profile,
                                 const std::string& name) {
  auto ab = std::make_shared<net::Pipe>(sim, a, b, profile, name + ".ab");
  auto ba = std::make_shared<net::Pipe>(sim, b, a, profile, name + ".ba");
  std::unique_ptr<SvSocket> sa(new FastSocket(sim, transport, a, b, ab, ba));
  std::unique_ptr<SvSocket> sb(new FastSocket(sim, transport, b, a, ba, ab));
  return {std::move(sa), std::move(sb)};
}

FastSocket::FastSocket(sim::Simulation* sim, net::Transport transport,
                       net::Node* node, net::Node* peer,
                       std::shared_ptr<net::Pipe> out,
                       std::shared_ptr<net::Pipe> in)
    : transport_(transport), node_(node), out_(std::move(out)),
      in_(std::move(in)) {
  init_obs(sim, node->id(), peer->id(), "fast");
}

std::optional<net::Message> FastSocket::try_recv() {
  auto m = in_->try_recv();
  if (m) {
    if (transport_copies(transport_)) note_copy("tcp.kernel_to_user", m->bytes);
    note_received(m->bytes);
  }
  return m;
}

Result<std::optional<net::Message>> FastSocket::recv_for(SimTime timeout) {
  const SimTime start = obs_now();
  auto r = in_->recv_for(timeout);
  if (r.ok() && r.value()) {
    if (transport_copies(transport_)) {
      note_copy("tcp.kernel_to_user", r.value()->bytes);
    }
    note_received(r.value()->bytes);
    obs_span(start, "recv", r.value()->bytes);
  } else if (!r.ok()) {
    note_timeout("timeout.recv");
  }
  return r;
}

Result<void> FastSocket::send_for(net::Message m, SimTime timeout) {
  const std::uint64_t bytes = m.bytes;
  const std::uint64_t buffer = m.buffer;
  const SimTime start = obs_now();
  // Copy and policy work happen before the transport accepts the message:
  // a send that then times out still paid for its copy or its pin.
  bool release = false;
  if (transport_copies(transport_)) {
    // TCP's copies are structural; the policy does not apply.
    note_copy("tcp.user_to_kernel", bytes);
  } else {
    release = policy_acquire(buffer, bytes);
  }
  auto r = out_->send_for(std::move(m), timeout);
  if (release) policy_release(buffer, bytes);
  if (r.ok()) {
    note_sent(bytes);
    obs_span(start, "send", bytes);
  } else {
    note_timeout("timeout.window");
  }
  return r;
}

void FastSocket::close_send() { out_->close(); }

}  // namespace sv::sockets
