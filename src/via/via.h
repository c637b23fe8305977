// A functional Virtual Interface Architecture (VIA) provider library.
//
// Models the user-level NIC interface of the GigaNet cLAN: applications
// register memory, create VI endpoints, post send/receive descriptors to
// work queues, ring a doorbell, and reap completions from completion
// queues. All protocol machinery is executed (descriptor matching, queue
// depths, completion ordering, RDMA writes); only the *time* each step
// takes comes from the calibrated VIA profile (net/calibration.h).
//
// Semantics follow the VIA spec where it matters to the paper:
//  - Reliable delivery: data arrives in order, exactly once.
//  - A send arriving with no posted receive descriptor is an error
//    (completes with Status::kNoReceiveDescriptor at the *sender* CQ); the
//    sockets layer above avoids this with credit-based flow control,
//    exactly as SocketVIA did.
//  - RDMA write requires no receive descriptor and completes at the sender
//    only (the paper's future-work push/pull model builds on this).
//
// The NIC's TX and RX engines are state machines the event engine runs
// directly (DESIGN.md §5), not processes: a work queue, a busy flag and a
// step function each. Posting and completion have callback forms for
// event-driven consumers (post_send(d, then), CompletionQueue's completion
// callback); the blocking forms that applications call wrap them. The
// Nic must outlive message flow: pending events hold raw pointers to it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/calibration.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "sim/sync.h"

namespace sv::via {

/// Registered memory: VIA requires all transfer buffers to be registered
/// (pinned) before use. Backing storage is materialized so payload-carrying
/// transfers actually move bytes.
class MemoryRegion {
 public:
  MemoryRegion(std::uint64_t handle, std::size_t size)
      : handle_(handle), data_(size) {}

  [[nodiscard]] std::uint64_t handle() const { return handle_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::byte* data() { return data_.data(); }
  [[nodiscard]] const std::byte* data() const { return data_.data(); }

 private:
  std::uint64_t handle_;
  std::vector<std::byte> data_;
};

enum class Opcode { kSend, kRdmaWrite };

enum class Status {
  kSuccess,
  kNoReceiveDescriptor,  // send arrived with empty receive queue
  kLengthError,          // receive buffer too small for incoming data
  kFlushed,              // endpoint torn down with work outstanding
};

[[nodiscard]] const char* status_name(Status s);

/// A work descriptor (the VIP_DESCRIPTOR analogue).
struct Descriptor {
  Opcode op = Opcode::kSend;
  std::shared_ptr<MemoryRegion> region;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  /// 32-bit immediate delivered with the payload (like VIP immediate data).
  std::uint32_t immediate = 0;
  /// For RDMA write: remote region handle + offset.
  std::uint64_t remote_handle = 0;
  std::uint64_t remote_offset = 0;
  /// RDMA write with immediate data (VIA spec): after the data lands, a
  /// posted receive descriptor at the target is consumed and a receive
  /// completion carrying `immediate` is generated. Without it, RDMA writes
  /// are silent at the target.
  bool remote_notify = false;
  /// Application cookie returned in the completion.
  std::uint64_t cookie = 0;
};

struct Completion {
  Status status = Status::kSuccess;
  Opcode op = Opcode::kSend;
  std::uint64_t bytes = 0;
  std::uint32_t immediate = 0;
  std::uint64_t cookie = 0;
  SimTime timestamp;
};

/// Completion queue: multiple VIs may share one (as VIPL allows).
class CompletionQueue {
 public:
  CompletionQueue(sim::Simulation* sim, std::string name)
      : items_(sim, 0, std::move(name)) {}

  /// Blocks until a completion is available (VipCQWait).
  Completion wait() {
    auto c = items_.recv();
    if (!c) {
      throw std::logic_error("CompletionQueue: closed while waiting");
    }
    return *c;
  }
  /// Non-blocking poll (VipCQDone).
  std::optional<Completion> poll() { return items_.try_recv(); }
  [[nodiscard]] std::size_t pending() const { return items_.size(); }

  /// Completion callback (the VipCQNotify analogue, but persistent): `fn`
  /// runs after every push, inside the NIC handler that pushed, so an
  /// event-driven consumer can poll() without a process blocked in
  /// wait(). An empty handler detaches it; ~Nic detaches the callbacks of
  /// its VIs' queues, which may co-own those VIs.
  void on_completion(sim::InlineHandler fn) { notify_ = std::move(fn); }

  void push(Completion c) {
    items_.send(std::move(c));
    if (notify_) notify_();
  }

 private:
  sim::Channel<Completion> items_;
  sim::InlineHandler notify_;
};

class Nic;

/// A connected Virtual Interface endpoint pair member.
class Vi {
 public:
  Vi(Nic* nic, std::uint64_t id, std::shared_ptr<CompletionQueue> send_cq,
     std::shared_ptr<CompletionQueue> recv_cq);

  /// Connects this VI to a remote VI (both directions set symmetrically by
  /// Nic::connect). Must be connected before posting sends.
  [[nodiscard]] bool connected() const { return peer_ != nullptr; }

  /// Posts a receive descriptor (VipPostRecv). Never blocks.
  void post_recv(Descriptor d);
  /// Posts a send/RDMA descriptor and rings the doorbell (VipPostSend).
  /// Blocks the calling process for the doorbell time; the transfer itself
  /// is asynchronous.
  void post_send(Descriptor d);
  /// Callback form of post_send(): charges the doorbell on the node's
  /// tx_host, hands the descriptor to the TX engine, then runs `then`.
  /// Keep `then` small (a pointer or two) to stay inline.
  void post_send(Descriptor d, sim::InlineHandler then);

  [[nodiscard]] CompletionQueue& send_cq() { return *send_cq_; }
  [[nodiscard]] CompletionQueue& recv_cq() { return *recv_cq_; }
  [[nodiscard]] std::size_t recv_queue_depth() const {
    return recv_queue_.size();
  }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Nic& nic() { return *nic_; }

 private:
  friend class Nic;

  Nic* nic_;
  std::uint64_t id_;
  Vi* peer_ = nullptr;
  std::shared_ptr<CompletionQueue> send_cq_;
  std::shared_ptr<CompletionQueue> recv_cq_;
  std::deque<Descriptor> recv_queue_;
};

/// The per-node VIA NIC: owns memory registration, the TX engine that
/// moves posted send descriptors across the wire in FIFO order, and the RX
/// engine that matches them to receive descriptors and posts completions.
class Nic {
 public:
  Nic(sim::Simulation* sim, net::Node* node,
      net::CalibrationProfile profile = net::CalibrationProfile::via());
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Registers (pins) memory; costs registration time.
  std::shared_ptr<MemoryRegion> register_memory(std::size_t size);
  /// Looks up a registered region by handle (RDMA target resolution).
  [[nodiscard]] std::shared_ptr<MemoryRegion> find_region(
      std::uint64_t handle) const;
  void deregister_memory(std::uint64_t handle);

  /// Creates an unconnected VI with fresh CQs (or caller-shared CQs).
  std::shared_ptr<Vi> create_vi();
  std::shared_ptr<Vi> create_vi(std::shared_ptr<CompletionQueue> send_cq,
                                std::shared_ptr<CompletionQueue> recv_cq);

  /// Connects two VIs (possibly on different NICs) as a reliable pair.
  static void connect(Vi& a, Vi& b);

  [[nodiscard]] sim::Simulation& sim() { return *sim_; }
  [[nodiscard]] net::Node& node() { return *node_; }
  [[nodiscard]] const net::CostModel& model() const { return model_; }
  [[nodiscard]] std::uint64_t sends_completed() const {
    return sends_completed_;
  }
  [[nodiscard]] std::uint64_t recv_misses() const { return recv_misses_; }

 private:
  friend class Vi;

  /// A posted descriptor on its way through both NICs' engines.
  struct Work {
    Vi* vi;  // the *sending* VI (receiver resolved via its peer link)
    Descriptor desc;
  };
  /// A post_send waiting for its doorbell charge on tx_host.
  struct Posting {
    Work work;
    sim::InlineHandler then;
  };

  void post_send_internal(Vi* vi, Descriptor d, sim::InlineHandler then);
  /// Runs `step` from an event at now() unless the engine is `busy`.
  void kick(bool& busy, void (Nic::*step)());

  // TX engine: the head of tx_q_ occupies the peer's link_in, then flies.
  void tx_step();
  void tx_done();
  void land();  // propagation over: the front of flight_ reaches the peer

  // RX engine: receive processing on rx_proto, then the completions.
  void rx_step();
  void rx_done();
  void complete(Work& w);

  sim::Simulation* sim_;
  net::Node* node_;
  net::CalibrationProfile profile_;
  net::CostModel model_;
  std::uint64_t next_handle_ = 1;
  std::uint64_t next_vi_id_ = 1;
  std::vector<std::shared_ptr<MemoryRegion>> regions_;
  std::vector<std::shared_ptr<Vi>> vis_;
  std::deque<Work> tx_q_;
  bool tx_busy_ = false;
  /// Work in propagation. Every descriptor from this NIC flies for the
  /// same time, so they land in launch order.
  std::deque<Work> flight_;
  std::deque<Work> rx_q_;
  bool rx_busy_ = false;
  std::uint64_t sends_completed_ = 0;
  std::uint64_t recv_misses_ = 0;
};

}  // namespace sv::via
