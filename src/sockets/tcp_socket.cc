#include "sockets/tcp_socket.h"

#include <limits>
#include <utility>

#include "mem/payload.h"

namespace sv::sockets {
namespace {

/// Sentinel meta entry marking the sender's half-close.
bool is_eof_marker(const net::Message& m) {
  return m.bytes == std::numeric_limits<std::uint64_t>::max();
}

net::Message eof_marker() {
  net::Message m;
  m.bytes = std::numeric_limits<std::uint64_t>::max();
  return m;
}

/// Builds the on-wire frame for `m` and strips its payload: an 8-byte
/// virtual length header followed by the body. A message without a
/// materialized payload sends a virtual body of the same length, so
/// timing-only and materialized traffic take the identical stream path.
mem::Payload take_frame(net::Message& m, std::uint64_t header_bytes) {
  mem::Payload body = m.payload.empty() && m.bytes > 0
                          ? mem::Payload::virtual_bytes(m.bytes)
                          : std::move(m.payload);
  m.payload = mem::Payload{};
  return mem::Payload::virtual_bytes(header_bytes).concat(body);
}

/// Re-attaches the received body to the meta message. Virtual bodies (the
/// sender had no materialized payload) collapse back to an empty payload so
/// receivers see exactly what the sender's message carried.
void attach_body(net::Message& m, const mem::Payload& frame,
                 std::uint64_t header_bytes) {
  mem::Payload body = frame.slice(header_bytes, m.bytes);
  m.payload = body.materialized() ? std::move(body) : mem::Payload{};
}

}  // namespace

SocketPair DetailedTcpSocket::make_pair(tcpstack::TcpStack& a,
                                        tcpstack::TcpStack& b,
                                        tcpstack::TcpOptions options) {
  auto [ca, cb] = tcpstack::TcpStack::connect(a, b, options);
  auto dir_ab = std::make_shared<Direction>(&a.sim());
  auto dir_ba = std::make_shared<Direction>(&a.sim());
  std::unique_ptr<SvSocket> sa(
      new DetailedTcpSocket(std::move(ca), dir_ab, dir_ba));
  std::unique_ptr<SvSocket> sb(
      new DetailedTcpSocket(std::move(cb), std::move(dir_ba),
                            std::move(dir_ab)));
  return {std::move(sa), std::move(sb)};
}

net::Node& DetailedTcpSocket::local_node() const {
  return conn_->stack().node();
}

Result<void> DetailedTcpSocket::send_for(net::Message m, SimTime timeout) {
  const std::uint64_t bytes = m.bytes;
  const SimTime start = obs_now();
  m.sent_at = conn_->stack().sim().now();
  mem::Payload frame = take_frame(m, kHeaderBytes);
  // Metadata rides an in-order side queue; the frame bytes go through the
  // full TCP machinery. Single writer per socket assumed (as in DataCutter).
  outgoing_->metas.push_back(std::move(m));
  outgoing_->meta_available.notify_all();
  // Handing user bytes to the stack models the write()-side user->kernel
  // copy; its time is already in the calibrated per-byte send cost.
  note_copy("tcp.user_to_kernel", bytes);
  auto r = conn_->send_payload_for(std::move(frame), timeout);
  if (r.ok()) {
    note_sent(bytes);
    obs_span(start, "send", bytes);
  } else {
    note_timeout("timeout.sndbuf");
  }
  return r;
}

Result<std::optional<net::Message>> DetailedTcpSocket::recv_for(
    SimTime timeout) {
  const SimTime start = obs_now();
  const SimTime deadline =
      sim::deadline_after(conn_->stack().sim().now(), timeout);
  while (incoming_->metas.empty()) {
    if (!incoming_->meta_available.wait_until(deadline) &&
        incoming_->metas.empty()) {
      note_timeout("timeout.recv");
      return Error::timeout("DetailedTcpSocket: recv timed out");
    }
  }
  if (is_eof_marker(incoming_->metas.front())) {
    return std::optional<net::Message>{};
  }
  // Drain the frame with the remaining budget; the meta entry is consumed
  // only on success so a timed-out socket fails loudly, not subtly. A
  // deadline of SimTime::max() leaves a remaining budget that saturates
  // back to "forever".
  const std::uint64_t frame = kHeaderBytes + incoming_->metas.front().bytes;
  const SimTime left = deadline - conn_->stack().sim().now();
  if (left <= SimTime::zero()) {
    note_timeout("timeout.recv");
    return Error::timeout("DetailedTcpSocket: recv timed out");
  }
  auto drained = conn_->recv_exact_payload_for(frame, left);
  if (!drained.ok()) {
    note_timeout("timeout.recv_drain");
    return drained.error();
  }
  net::Message m = std::move(incoming_->metas.front());
  incoming_->metas.pop_front();
  attach_body(m, drained.value(), kHeaderBytes);
  note_copy("tcp.kernel_to_user", m.bytes);
  m.delivered_at = conn_->stack().sim().now();
  conn_->stack().sim().obs().note_delivery(m.sent_at, m.delivered_at);
  note_received(m.bytes);
  obs_span(start, "recv", m.bytes);
  return std::optional<net::Message>(std::move(m));
}

std::optional<net::Message> DetailedTcpSocket::try_recv() {
  if (incoming_->metas.empty()) return std::nullopt;
  if (is_eof_marker(incoming_->metas.front())) return std::nullopt;
  const net::Message& front = incoming_->metas.front();
  if (conn_->recv_buffered() < kHeaderBytes + front.bytes) {
    return std::nullopt;  // frame not fully buffered yet
  }
  return recv();
}

void DetailedTcpSocket::close_send() {
  outgoing_->metas.push_back(eof_marker());
  outgoing_->meta_available.notify_all();
  conn_->close();
}

}  // namespace sv::sockets
