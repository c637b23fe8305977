// SocketVIA, executed: the user-level sockets layer over the VIA provider.
//
// Implements the design of the paper's substrate (see also Balaji et al.,
// OSU-CISRC-1/03-TR05): each endpoint pre-registers and pre-posts a pool of
// receive buffers; senders chunk messages and spend *credits* (one per
// posted peer buffer) so a VIA send never arrives without a matching
// receive descriptor; receivers return credits in batched credit-update
// messages on the same VI. Message boundaries and kinds ride the VIA
// immediate data (format in immediate.h). EOF is an in-band control
// message.
//
// All data and control messages are real via::Vi descriptors, so flow
// control, credit traffic, and completion handling all cost simulated time
// through the calibrated VIA profile.
//
// Each side's receive completions are consumed by a demux handler, a state
// machine the event engine runs directly (DESIGN.md §5): the receive CQ's
// completion callback wakes it, and its per-chunk bookkeeping charges are
// scheduled continuations.
//
// Lifetime: the demux handlers (the completion callbacks and the events
// they schedule) co-own the connection state, so socket handles may be
// destroyed at any simulated time. The via::Nic objects and the
// Simulation must outlive message flow.
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

struct ViaSocketOptions {
  /// Receive-pool chunk size; messages larger than this are chunked.
  std::uint64_t chunk_bytes = 16 * 1024;
  /// Number of data credits (posted peer buffers). Window = credits*chunk.
  std::uint32_t credits = 8;
  /// Return credits after this many chunks are consumed.
  std::uint32_t credit_batch = 4;
};

class DetailedViaSocket final : public SvSocket {
 public:
  /// Builds a connected SocketVIA pair over two NICs. Registers and posts
  /// the buffer pools (costs time when called inside a process).
  static SocketPair make_pair(via::Nic& a, via::Nic& b,
                              ViaSocketOptions options = {});
  ~DetailedViaSocket() override;

  std::optional<net::Message> try_recv() override;
  /// Timed receive (ok(nullopt) = EOF; kTimeout = nothing delivered).
  [[nodiscard]] Result<std::optional<net::Message>> recv_for(SimTime timeout) override;
  /// Timed send with credit-stall detection: if the receiver stops
  /// returning credits (e.g. its node is stalled) the send gives up after
  /// `timeout` instead of blocking forever on credit_wait.
  [[nodiscard]] Result<void> send_for(net::Message m, SimTime timeout) override;
  void close_send() override;

  [[nodiscard]] net::Transport transport() const override {
    return net::Transport::kSocketVia;
  }
  [[nodiscard]] net::Node& local_node() const override;

  /// Diagnostics for tests.
  [[nodiscard]] std::uint32_t available_credits() const;
  [[nodiscard]] std::uint64_t credit_updates_sent() const;

 private:
  /// Per-endpoint connection state, co-owned by the demux handlers.
  struct Side {
    Side(sim::Simulation* sim, int index);

    via::Nic* nic = nullptr;
    std::shared_ptr<via::Vi> vi;
    std::shared_ptr<via::MemoryRegion> send_region;
    std::shared_ptr<via::MemoryRegion> recv_pool;

    // Sender state (this side sending to the peer).
    std::deque<net::Message> outgoing_meta;
    std::uint32_t credits = 0;
    sim::WaitQueue credit_wait;
    bool send_closed = false;

    // Receiver state (this side receiving from the peer).
    sim::Channel<net::Message> delivered;
    std::uint64_t pending_chunks = 0;
    std::uint32_t consumed_since_credit = 0;
    /// Registry counter `via_sock.credit_updates{side=<serial>}`, bound in
    /// setup_side.
    obs::Counter* credit_updates = nullptr;
    /// The demux handler is running, scheduled, or inside a chunk's
    /// bookkeeping or a credit update.
    bool demux_busy = false;
  };

  struct PairState : std::enable_shared_from_this<PairState> {
    PairState(sim::Simulation* sim_in, ViaSocketOptions options_in)
        : sim(sim_in), options(options_in), sides{Side(sim_in, 0),
                                                  Side(sim_in, 1)} {}
    sim::Simulation* sim;
    ViaSocketOptions options;
    std::array<Side, 2> sides;

    void setup_side(int i, via::Nic& nic, std::shared_ptr<via::Vi> vi);
    void post_one_recv(int i);
    /// Posts a dataless control message (credit update or EOF) on side
    /// i's VI; `then` runs once the doorbell has been charged.
    void send_control(int i, imm::Kind kind, std::uint32_t value,
                      sim::InlineHandler then);
    /// Reaps side i's send completions, keeping its send CQ shallow.
    void reap_sends(int i);

    // Side i's demux handler, one receive completion at a time.
    void kick_demux(int i);
    void demux_step(int i);
    void chunk_received(int i);
    void message_complete(int i);
    void return_credits(int i);
    void credits_returned(int i);
  };

  DetailedViaSocket(std::shared_ptr<PairState> state, int side);

  [[nodiscard]] Side& mine() const {
    return state_->sides[static_cast<std::size_t>(side_)];
  }

  std::shared_ptr<PairState> state_;
  int side_;
};

}  // namespace sv::sockets
