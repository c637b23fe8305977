#include "datacutter/local_socket.h"

namespace sv::dc {

sockets::SocketPair LocalSocket::make_pair(sim::Simulation* sim,
                                           net::Node* node,
                                           const std::string& name) {
  auto ab = std::make_shared<Queue>(sim, 0, name + ".ab");
  auto ba = std::make_shared<Queue>(sim, 0, name + ".ba");
  std::unique_ptr<sockets::SvSocket> a(new LocalSocket(sim, node, ab, ba));
  std::unique_ptr<sockets::SvSocket> b(new LocalSocket(sim, node, ba, ab));
  return {std::move(a), std::move(b)};
}

std::optional<net::Message> LocalSocket::try_recv() {
  auto m = in_->try_recv();
  if (m) {
    note_received(m->bytes);
  }
  return m;
}

sv::Result<std::optional<net::Message>> LocalSocket::recv_for(
    SimTime timeout) {
  const SimTime start = obs_now();
  auto r = in_->recv_for(timeout);
  if (r.ok() && r.value()) {
    note_received(r.value()->bytes);
    obs_span(start, "recv", r.value()->bytes);
  } else if (!r.ok()) {
    note_timeout("timeout.recv");
  }
  return r;
}

sv::Result<void> LocalSocket::send_for(net::Message m, SimTime /*timeout*/) {
  const std::uint64_t bytes = m.bytes;
  const SimTime start = obs_now();
  m.sent_at = sim_->now();
  sim_->delay(kHandoffCost);
  m.delivered_at = sim_->now();
  sim_->obs().note_delivery(m.sent_at, m.delivered_at);
  out_->send(std::move(m));
  note_sent(bytes);
  obs_span(start, "send", bytes);
  return sv::Result<void>::success();
}

void LocalSocket::close_send() {
  if (!out_->closed()) out_->close();
}

}  // namespace sv::dc
