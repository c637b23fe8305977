// The executed transport fabric: flow-controlled, staged message pipes.
//
// A Pipe is one unidirectional connection between two nodes, parameterized
// by a CalibrationProfile. Each message is split into pipeline frames that
// cross three stages:
//
//   sender process --(window)--> [tx_host] --> wire stage [fabric, link_in]
//        --propagation--> proto stage [rx_proto @ dst] --> delivery
//
// Stage occupancy uses the per-node shared resources from cluster.h, so
// concurrent connections contend realistically (the mechanism behind the
// paper's application-level results). Flow control returns window credit
// when the receiver-side protocol stage finishes a frame, modeling the TCP
// advertised window / SocketVIA credit scheme.
//
// Only the sender is a simulated process: send() blocks the caller, as a
// blocking socket does. The wire and protocol stages are event-driven
// state machines (a frame queue and a busy flag each) that the engine runs
// directly, with no stack of their own (DESIGN.md §5). A stage reacts
// exactly where a process looping over a channel would have: a frame
// arriving at an idle stage costs one event at now(), the wake-up such a
// process would have needed, and a busy stage picks the next frame up
// inline when it finishes the current one.
//
// Delivery goes to the receive queue behind recv(), or — for a pipe built
// with a DeliveryFn — to that callback, which runs from one event per
// batch of deliveries, where a receiving process would have been woken.
//
// Lifetime: pending stage events and resource waiters co-own the pipe
// state, so a Pipe handle may be destroyed at any simulated time; every
// admitted frame still crosses and is delivered (to the callback; the
// receive queue closes with the handle). Nodes and the Simulation must
// outlive message flow.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mem/payload.h"
#include "net/calibration.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "sim/sync.h"

namespace sv::net {

struct Message {
  /// Logical size that drives all timing (payload need not be materialized).
  std::uint64_t bytes = 0;
  /// Per-pipe sequence number, assigned by send().
  std::uint64_t seq = 0;
  /// Application tag (e.g. DataCutter stream id or query id).
  std::uint64_t tag = 0;
  /// Timestamps for latency accounting.
  SimTime sent_at{};
  SimTime delivered_at{};
  /// Payload view (mem/payload.h): empty for pure timing messages,
  /// virtual or materialized otherwise. Shared by reference — the fabric
  /// and every transport move it without copying bytes (svlint SV008);
  /// copies happen only at modeled user↔kernel boundaries and are charged
  /// through mem::charge_copy.
  mem::Payload payload{};
  /// Buffer-region id for the selective-copy policy layer (DESIGN.md §14):
  /// messages sharing a `buffer` reuse the same registered region, which
  /// is what the pin-down RegCache keys on. 0 (default) means "anonymous
  /// one-shot buffer" — never a cache hit against another message.
  std::uint64_t buffer = 0;
  /// Optional application metadata (e.g. a DataCutter buffer descriptor).
  std::any meta{};
};

class Pipe {
 public:
  /// Receives each delivered message at the destination, in order, at its
  /// delivered_at instant.
  using DeliveryFn = std::function<void(Message)>;

  /// Creates a connected pipe from `src` to `dst`. With `on_delivery`,
  /// delivered messages go to it instead of the receive queue (recv()
  /// then never returns a message). The Simulation must outlive all
  /// message flow.
  Pipe(sim::Simulation* sim, Node* src, Node* dst, CalibrationProfile profile,
       std::string name, DeliveryFn on_delivery = {});
  ~Pipe();

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// Blocking send (call from a simulated process on the source node's
  /// side). Blocks while the flow-control window is exhausted, then spends
  /// the sender-host time before returning (the blocking-socket model the
  /// paper's applications use).
  void send(Message m);

  /// Timed send: like send(), but a wait on the flow-control window gives
  /// up after `timeout` (<= 0 = wait forever) with ErrorCode::kTimeout.
  /// Frames already admitted stay in flight, so a timed-out pipe must be
  /// treated as failed by the caller.
  [[nodiscard]] Result<void> send_for(Message m, SimTime timeout);

  /// Blocking receive; nullopt after close() once drained.
  std::optional<Message> recv();
  /// Timed receive; ok(nullopt) means closed-and-drained, kTimeout means
  /// nothing was deliverable within `timeout` (<= 0 = wait forever).
  [[nodiscard]] Result<std::optional<Message>> recv_for(SimTime timeout);
  /// Non-blocking receive.
  std::optional<Message> try_recv();
  /// Number of fully-delivered messages waiting in the receive queue.
  [[nodiscard]] std::size_t pending() const;

  /// Closes the sending side; in-flight messages still deliver, then
  /// receivers see end-of-stream.
  void close();
  [[nodiscard]] bool closed() const;

  [[nodiscard]] const CostModel& model() const;
  [[nodiscard]] Node& src() const;
  [[nodiscard]] Node& dst() const;
  [[nodiscard]] const std::string& name() const;

  /// Totals for reporting.
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;
  /// Frames internally re-sent after fault-injected wire loss. The fast
  /// fabric stays reliable and in-order: a lost frame costs the link's
  /// recovery_delay plus a second wire crossing (see net/fault.h).
  [[nodiscard]] std::uint64_t frames_retransmitted() const;

 private:
  struct Frame {
    std::uint64_t bytes = 0;
    bool first = false;
    bool last = false;
    bool eof = false;
    Message msg;  // populated on the last frame of each message
  };

  /// All mutable pipe state, co-owned by pending stage events so the Pipe
  /// handle can be destroyed while work is still in flight.
  struct State : std::enable_shared_from_this<State> {
    State(sim::Simulation* sim_in, Node* src_in, Node* dst_in,
          CalibrationProfile profile_in, std::string name_in,
          DeliveryFn on_delivery_in);

    [[nodiscard]] SimTime sender_frame_time(const Frame& f) const;
    [[nodiscard]] SimTime recv_frame_time(const Frame& f) const;

    /// Runs `step` from an event at now() unless the stage is `busy`.
    void kick(bool& busy, void (State::*step)());
    /// Hands a frame to the wire stage.
    void admit(Frame f);

    // Wire stage: one frame at a time, the head of wire_q.
    void wire_step();     // take the next frame, or go idle
    void wire_cross();    // fabric path, then the destination's link_in
    void wire_link_in();
    void wire_crossed();  // fault verdict: retransmit, jitter, or done
    void wire_done();
    void wire_launch();   // start propagation; next frame
    void land();          // propagation over: frame reaches the proto stage

    // Protocol stage: one frame at a time, the head of proto_q.
    void proto_step();
    void proto_done();
    void deliver(Message m);
    void deliver_step();

    sim::Simulation* sim;
    Node* src;
    Node* dst;
    CalibrationProfile profile;
    CostModel model;
    std::string name;
    /// Switch fabric between src and dst (nullptr = single crossbar). The
    /// wire stage traverses the routed path before the destination's
    /// link_in, and `fabric_latency` (path hops * hop latency, fixed per
    /// pipe since routing is deterministic) extends propagation.
    Topology* topo = nullptr;
    SimTime fabric_latency{};

    std::uint64_t next_seq = 0;
    bool closed = false;

    // Registry-backed statistics (bound in the constructor): per-pipe
    // totals under `{pipe=<name>#<serial>}` plus per-link aggregates
    // shared by every pipe crossing the same (src, dst) link.
    obs::Counter* c_msgs_sent;
    obs::Counter* c_bytes_sent;
    obs::Counter* c_frames_retx;
    obs::Counter* c_frames_retx_total;
    obs::Counter* c_frames_link;
    obs::Counter* c_frame_bytes_sent_link;
    obs::Counter* c_frame_bytes_recv_link;
    obs::Counter* c_wire_ns_link;
    obs::Gauge* g_in_flight_link;
    obs::Counter* c_msgs_recv_total;
    obs::Histogram* h_msg_latency;

    std::uint64_t in_flight_bytes = 0;
    sim::WaitQueue window_waiters;

    std::deque<Frame> wire_q;
    bool wire_busy = false;  // crossing a frame, or its wake is scheduled
    SimTime wire_start{};
    FaultInjector* wire_faults = nullptr;  // read once per frame
    Topology::Walk walk;
    /// Frames in propagation. Every frame of a pipe flies for the same
    /// time, so they land in launch order.
    std::deque<Frame> flight;
    std::deque<Frame> proto_q;
    bool proto_busy = false;
    SimTime rx_start{};

    sim::Channel<Message> delivered;
    DeliveryFn on_delivery;
    std::deque<Message> deliver_q;  // callback form only
    bool deliver_busy = false;
  };

  std::shared_ptr<State> st_;
};

}  // namespace sv::net
