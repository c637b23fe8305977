// The push-model sockets layer the paper names as future work: one-sided
// RDMA writes into a receiver-advertised slot ring, with RDMA-write-with-
// immediate as the notification (VIA spec semantics).
//
// Differences from SocketVIA's two-sided path:
//  - data never consumes receive descriptors or per-byte receive-side
//    protocol processing — it lands by DMA, so a busy receiver host does
//    not throttle the data path;
//  - flow control is slot-ring occupancy (the sender owns slot credits and
//    the receiver returns them in batches), not per-buffer descriptors;
//  - only the small notification completions touch the receiver's
//    descriptor pool.
//
// As in SocketVIA, each side's notifications are consumed by a demux
// handler that the receive CQ's completion callback wakes (DESIGN.md §5);
// it co-owns the connection state, so socket handles may be destroyed at
// any simulated time while the via::Nic objects outlive message flow.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>

#include "sim/sync.h"
#include "sockets/immediate.h"
#include "sockets/socket.h"
#include "via/via.h"

namespace sv::sockets {

struct RdmaSocketOptions {
  /// Slot size; messages larger than this are written as multiple slots.
  std::uint64_t slot_bytes = 16 * 1024;
  /// Ring depth per direction (sender-owned slot credits).
  std::uint32_t ring_slots = 8;
  /// Return slot credits after this many slots are consumed.
  std::uint32_t credit_batch = 4;
};

class RdmaPushSocket final : public SvSocket {
 public:
  static SocketPair make_pair(via::Nic& a, via::Nic& b,
                              RdmaSocketOptions options = {});
  ~RdmaPushSocket() override;

  std::optional<net::Message> try_recv() override;
  [[nodiscard]] Result<std::optional<net::Message>> recv_for(SimTime timeout) override;
  /// Timed send with slot-stall detection (the ring analogue of the
  /// SocketVIA credit stall: a stalled receiver stops returning slots).
  [[nodiscard]] Result<void> send_for(net::Message m, SimTime timeout) override;
  void close_send() override;

  [[nodiscard]] net::Transport transport() const override {
    return net::Transport::kVia;  // one-sided VIA primitives
  }
  [[nodiscard]] net::Node& local_node() const override;

  [[nodiscard]] std::uint32_t available_slots() const;

 private:
  struct Side {
    Side(sim::Simulation* sim, int index);

    via::Nic* nic = nullptr;
    std::shared_ptr<via::Vi> vi;
    std::shared_ptr<via::MemoryRegion> send_region;   // staging for writes
    std::shared_ptr<via::MemoryRegion> ring;          // peer writes here
    std::shared_ptr<via::MemoryRegion> control_pool;  // dataless recvs

    // Sender state.
    std::deque<net::Message> outgoing_meta;
    std::uint32_t slots = 0;           // free peer ring slots
    std::uint64_t next_slot = 0;       // monotone slot cursor
    sim::WaitQueue slot_wait;
    bool send_closed = false;

    // Receiver state.
    sim::Channel<net::Message> delivered;
    std::uint64_t pending_chunks = 0;
    std::uint32_t consumed_since_credit = 0;
    /// The demux handler is running, scheduled, or returning slot credits.
    bool demux_busy = false;
  };

  struct PairState : std::enable_shared_from_this<PairState> {
    PairState(sim::Simulation* sim_in, RdmaSocketOptions options_in)
        : sim(sim_in), options(options_in), sides{Side(sim_in, 0),
                                                  Side(sim_in, 1)} {}
    sim::Simulation* sim;
    RdmaSocketOptions options;
    std::array<Side, 2> sides;

    void setup_side(int i, via::Nic& nic, std::shared_ptr<via::Vi> vi);
    void post_control_recv(int i);
    /// Posts a dataless control message (slot credits or EOF) on side i's
    /// VI; `then` runs once the doorbell has been charged.
    void send_control(int i, imm::Kind kind, std::uint32_t value,
                      sim::InlineHandler then);
    void reap_sends(int i);

    // Side i's demux handler, one notification at a time.
    void kick_demux(int i);
    void demux_step(int i);
    void credits_returned(int i);
  };

  RdmaPushSocket(std::shared_ptr<PairState> state, int side);

  [[nodiscard]] Side& mine() const {
    return state_->sides[static_cast<std::size_t>(side_)];
  }

  std::shared_ptr<PairState> state_;
  int side_;
};

}  // namespace sv::sockets
