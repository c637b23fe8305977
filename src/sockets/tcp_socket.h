// Detailed-fidelity kernel socket: length-prefixed message framing over the
// executed TCP byte stream (tcpstack).
//
// Message metadata (tag/meta/payload pointers) travels in an in-order side
// queue; the *bytes* — header + body — travel through the full TCP
// machinery, so all timing comes from executed segments, ACKs and window
// behaviour.
#pragma once

#include <deque>
#include <memory>

#include "sim/sync.h"
#include "sockets/socket.h"
#include "tcpstack/tcp.h"

namespace sv::sockets {

class DetailedTcpSocket final : public SvSocket {
 public:
  /// Establishes a framed connection between two stacks (caller must be a
  /// simulated process; pays the handshake).
  static SocketPair make_pair(tcpstack::TcpStack& a, tcpstack::TcpStack& b,
                              tcpstack::TcpOptions options = {});

  std::optional<net::Message> try_recv() override;
  /// Timed receive. On kTimeout a frame may be partially drained from the
  /// TCP stream; the socket must then be abandoned.
  [[nodiscard]] Result<std::optional<net::Message>> recv_for(SimTime timeout) override;
  [[nodiscard]] Result<void> send_for(net::Message m, SimTime timeout) override;
  void close_send() override;

  [[nodiscard]] net::Transport transport() const override {
    return net::Transport::kKernelTcp;
  }
  [[nodiscard]] net::Node& local_node() const override;

 private:
  /// Per-direction framing state shared between the two endpoints.
  struct Direction {
    explicit Direction(sim::Simulation* sim)
        : meta_available(sim, "tcp_sock.meta") {}
    std::deque<net::Message> metas;
    sim::WaitQueue meta_available;
  };

  static constexpr std::uint64_t kHeaderBytes = 8;

  DetailedTcpSocket(std::shared_ptr<tcpstack::TcpConnection> conn,
                    std::shared_ptr<Direction> outgoing,
                    std::shared_ptr<Direction> incoming)
      : conn_(std::move(conn)),
        outgoing_(std::move(outgoing)),
        incoming_(std::move(incoming)) {
    init_obs(&conn_->stack().sim(), conn_->stack().node().id(),
             conn_->peer_node().id(), "tcp");
  }

  std::shared_ptr<tcpstack::TcpConnection> conn_;
  std::shared_ptr<Direction> outgoing_;
  std::shared_ptr<Direction> incoming_;
};

}  // namespace sv::sockets
