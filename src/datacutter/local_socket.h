// Same-host stream endpoint: filters placed on one node exchange buffers
// through memory, paying only a small runtime overhead per message.
#pragma once

#include <memory>

#include "sim/sync.h"
#include "sockets/socket.h"

namespace sv::dc {

class LocalSocket final : public sockets::SvSocket {
 public:
  /// Builds a connected same-node pair.
  static sockets::SocketPair make_pair(sim::Simulation* sim, net::Node* node,
                                       const std::string& name);

  std::optional<net::Message> try_recv() override;
  [[nodiscard]] sv::Result<std::optional<net::Message>> recv_for(SimTime timeout) override;
  /// The hand-off queue is unbounded: a same-host send never blocks on the
  /// peer, so the timeout cannot trip.
  [[nodiscard]] sv::Result<void> send_for(net::Message m, SimTime timeout) override;
  void close_send() override;

  [[nodiscard]] net::Transport transport() const override {
    // Local hand-off; reported as SocketVIA for uniformity but costs only
    // the hand-off overhead.
    return net::Transport::kSocketVia;
  }
  [[nodiscard]] net::Node& local_node() const override { return *node_; }

  /// Per-message hand-off cost between threads on one host.
  static constexpr SimTime kHandoffCost = SimTime::microseconds(2);

 private:
  using Queue = sim::Channel<net::Message>;

  LocalSocket(sim::Simulation* sim, net::Node* node,
              std::shared_ptr<Queue> out, std::shared_ptr<Queue> in)
      : sim_(sim), node_(node), out_(std::move(out)), in_(std::move(in)) {
    init_obs(sim_, node_->id(), node_->id(), "local");
  }

  sim::Simulation* sim_;
  net::Node* node_;
  std::shared_ptr<Queue> out_;
  std::shared_ptr<Queue> in_;
};

}  // namespace sv::dc
