// The high-performance sockets substrate under study.
//
// Applications (DataCutter, the visualization server, the benches) are
// written once against SvSocket — blocking message send/receive, like the
// sockets code the paper's applications used — and the transport underneath
// is chosen at connect time: kernel TCP or SocketVIA. This mirrors the
// paper's central premise: SocketVIA gives sockets applications VIA
// performance *without any application change*.
//
// Two fidelity levels exist for each transport:
//  - kFast: the staged cost model executed by net::Pipe (default for
//    application experiments; protocol costs in closed form, contention and
//    flow control executed).
//  - kDetailed: the full protocol machinery — tcpstack (segments, ACKs,
//    Nagle) or a SocketVIA implementation over the VIA provider library
//    (descriptor pools, credit-based flow control, credit-update messages).
// Tests assert the two levels agree on message timing.
//
// Each transport implements one timed body per operation (send_for,
// recv_for); the blocking send()/recv() are non-virtual wrappers that pass
// a zero timeout ("wait forever"), so the blocking and the timed paths
// cannot drift apart.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "mem/copy_policy.h"
#include "net/calibration.h"
#include "net/fabric.h"
#include "obs/hub.h"

namespace sv::sockets {

enum class Fidelity { kFast, kDetailed };

/// Value snapshot assembled from the socket's obs::Registry counters by
/// SvSocket::stats(); the live counts are registry-owned (DESIGN.md §9).
struct SocketStats {
  // svlint:allow(SV007) — snapshot POD, not a live counter
  std::uint64_t messages_sent = 0;
  // svlint:allow(SV007) — snapshot POD, not a live counter
  std::uint64_t bytes_sent = 0;
  // svlint:allow(SV007) — snapshot POD, not a live counter
  std::uint64_t messages_received = 0;
  // svlint:allow(SV007) — snapshot POD, not a live counter
  std::uint64_t bytes_received = 0;
  /// Timed operations that returned ErrorCode::kTimeout on this socket.
  // svlint:allow(SV007) — snapshot POD, not a live counter
  std::uint64_t timeouts = 0;
};

/// A connected, bidirectional, message-oriented blocking socket endpoint.
class SvSocket {
 public:
  virtual ~SvSocket() = default;

  /// Blocking send; returns when the message is accepted by the transport
  /// (flow control may block the caller). Must run inside a simulated
  /// process on the socket's node. Same as send_for(m, 0).
  void send(net::Message m) {
    // A zero timeout waits forever, so the result is always ok.
    (void)send_for(std::move(m), SimTime::zero());
  }

  /// Blocking receive; nullopt after the peer closed and all data drained.
  /// Same as recv_for(0).
  std::optional<net::Message> recv() {
    return std::move(recv_for(SimTime::zero()).value());
  }
  /// Non-blocking receive.
  virtual std::optional<net::Message> try_recv() = 0;

  /// Timed receive: ok(message) on data, ok(nullopt) on end-of-stream, or
  /// ErrorCode::kTimeout if nothing is deliverable within `timeout`
  /// (<= 0 means wait forever). For byte-stream transports a timeout may
  /// strand a partially-drained frame, so callers must treat a timeout as
  /// fatal for the stream (the stalled-peer recovery story; see fault.h).
  [[nodiscard]] virtual Result<std::optional<net::Message>> recv_for(SimTime timeout) = 0;

  /// Timed send: ErrorCode::kTimeout when the transport cannot accept the
  /// message within `timeout` (<= 0 means wait forever) — e.g. SocketVIA
  /// starved of credits by a stalled receiver, or TCP against a closed
  /// window. Part of the message may already be in flight after a timeout;
  /// treat the stream as failed. Every cost the transport charges before
  /// accepting a message (copies, policy work) is charged on this path
  /// whether or not the send then times out.
  [[nodiscard]] virtual Result<void> send_for(net::Message m, SimTime timeout) = 0;

  /// Half-close: no further sends from this side; peer sees end-of-stream.
  virtual void close_send() = 0;

  [[nodiscard]] virtual net::Transport transport() const = 0;
  [[nodiscard]] virtual net::Node& local_node() const = 0;
  /// Snapshot of this socket's registry counters (zeros before init_obs).
  [[nodiscard]] SocketStats stats() const;

  /// Installs the copy-cost ablation: each modeled payload copy additionally
  /// delays the caller by (copy_fixed + copy_per_byte*n) * scale_pct / 100.
  /// scale_pct = 0 (default) restores pure accounting — the calibrated
  /// profile already embeds real copy time (DESIGN.md §10). Zero-copy
  /// transports record no copies, so the knob is inert for them; that
  /// asymmetry is the ablation.
  void set_copy_ablation(SimTime copy_fixed, PerByteCost copy_per_byte,
                         int scale_pct);

  /// Installs the selective-copy policy consulted per outbound message on
  /// zero-copy transports (DESIGN.md §14). Null (the default) is the legacy
  /// static-pool path: no consult, no extra cost, digests unchanged. The
  /// policy is shared per node so RegCache state is common to every socket
  /// the node owns. Kernel TCP never consults it — TCP's two copies are
  /// structural, not a choice.
  void set_copy_policy(std::shared_ptr<mem::CopyPolicy> policy);
  [[nodiscard]] bool has_copy_policy() const { return policy_ != nullptr; }

 protected:
  /// Binds this endpoint's counters into the simulation registry: per-socket
  /// `socket.*{socket=<label>.<serial>}`, aggregate `socket.*`, and per-link
  /// `socket.timeouts{link=a->b}`. Concrete transports call this once from
  /// their constructor, as soon as both endpoints' nodes are known.
  void init_obs(sim::Simulation* sim, int local_node, int peer_node,
                std::string_view transport_label);
  /// Counter bumps for every accepted send / delivered receive.
  void note_sent(std::uint64_t bytes);
  void note_received(std::uint64_t bytes);
  /// A timed operation gave up: counts per-socket, per-link and aggregate,
  /// and drops a trace instant naming the stall reason (`op`, e.g.
  /// "timeout.credit_stall").
  void note_timeout(std::string_view op);
  /// Records one modeled payload copy (mem/ledger.h): `mem.copies`/
  /// `mem.copy_bytes` counters plus a trace instant at `stage` (e.g.
  /// "tcp.user_to_kernel"). Accounting only — unless a copy-cost ablation
  /// scale is installed (set_copy_ablation), in which case the scaled copy
  /// time is additionally charged to the calling process. Zero-copy
  /// transports never call this; that absence IS their model.
  void note_copy(std::string_view stage, std::uint64_t bytes);
  /// Records span [start, now] as `socket.<label>.<op>` on the local node.
  void obs_span(SimTime start, std::string_view op, std::uint64_t bytes);
  [[nodiscard]] SimTime obs_now() const;

  /// Consults the installed copy policy (no-op returning false when none)
  /// for an outbound message in region `buffer_id`: charges the verdict's
  /// ledger entries and burns its cpu cost in the calling process. Returns
  /// true when the caller owes a policy_release() after the send completes.
  bool policy_acquire(std::uint64_t buffer_id, std::uint64_t bytes);
  /// Releases a register-on-the-fly pin (charges unpin time). No-op when
  /// no policy is installed or the verdict did not require release.
  void policy_release(std::uint64_t buffer_id, std::uint64_t bytes);

 private:
  sim::Simulation* sim_ = nullptr;
  obs::Hub* hub_ = nullptr;
  int node_id_ = -1;
  std::string label_;
  SimTime copy_fixed_{};
  PerByteCost copy_per_byte_{};
  int copy_scale_pct_ = 0;
  std::shared_ptr<mem::CopyPolicy> policy_;
  obs::Counter* c_msgs_sent_ = nullptr;
  obs::Counter* c_bytes_sent_ = nullptr;
  obs::Counter* c_msgs_recv_ = nullptr;
  obs::Counter* c_bytes_recv_ = nullptr;
  obs::Counter* c_timeouts_ = nullptr;
  obs::Counter* c_msgs_sent_total_ = nullptr;
  obs::Counter* c_msgs_recv_total_ = nullptr;
  obs::Counter* c_timeouts_total_ = nullptr;
  obs::Counter* c_timeouts_link_ = nullptr;
  obs::Histogram* h_msg_bytes_ = nullptr;
};

using SocketPair =
    std::pair<std::unique_ptr<SvSocket>, std::unique_ptr<SvSocket>>;

}  // namespace sv::sockets
