#include "via/via.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mem/ledger.h"

namespace sv::via {

const char* status_name(Status s) {
  switch (s) {
    case Status::kSuccess: return "success";
    case Status::kNoReceiveDescriptor: return "no-receive-descriptor";
    case Status::kLengthError: return "length-error";
    case Status::kFlushed: return "flushed";
  }
  return "?";
}

Vi::Vi(Nic* nic, std::uint64_t id, std::shared_ptr<CompletionQueue> send_cq,
       std::shared_ptr<CompletionQueue> recv_cq)
    : nic_(nic),
      id_(id),
      send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)) {}

void Vi::post_recv(Descriptor d) {
  if (!d.region) {
    throw std::invalid_argument("post_recv: descriptor without region");
  }
  if (d.offset + d.length > d.region->size()) {
    throw std::invalid_argument("post_recv: descriptor exceeds region");
  }
  recv_queue_.push_back(std::move(d));
}

void Vi::post_send(Descriptor d) {
  nic_->sim().await("post_send", [&](sim::InlineHandler done) {
    post_send(std::move(d), std::move(done));
  });
}

void Vi::post_send(Descriptor d, sim::InlineHandler then) {
  if (!connected()) {
    throw std::logic_error("post_send: VI not connected");
  }
  if (d.op == Opcode::kSend) {
    if (!d.region) {
      throw std::invalid_argument("post_send: descriptor without region");
    }
    if (d.offset + d.length > d.region->size()) {
      throw std::invalid_argument("post_send: descriptor exceeds region");
    }
  }
  nic_->post_send_internal(this, std::move(d), std::move(then));
}

Nic::Nic(sim::Simulation* sim, net::Node* node, net::CalibrationProfile profile)
    : sim_(sim),
      node_(node),
      profile_(std::move(profile)),
      model_(profile_) {}

Nic::~Nic() {
  // A completion callback may co-own the VI whose queue holds it (the
  // sockets' demux handlers co-own their connection state); dropping the
  // callbacks breaks that cycle.
  for (const auto& vi : vis_) {
    vi->send_cq_->on_completion({});
    vi->recv_cq_->on_completion({});
  }
}

std::shared_ptr<MemoryRegion> Nic::register_memory(std::size_t size) {
  // Registration pins pages; on the paper's era hardware this was a
  // multi-microsecond kernel operation. Charge a fixed cost when called
  // from a process; setup code outside processes registers for free.
  if (sim_->current() != nullptr) {
    sim_->delay(SimTime::microseconds(20));
  }
  mem::charge_registration(&sim_->obs(), sim_->now(), node_->id(), size);
  auto region = std::make_shared<MemoryRegion>(next_handle_++, size);
  regions_.push_back(region);
  return region;
}

std::shared_ptr<MemoryRegion> Nic::find_region(std::uint64_t handle) const {
  for (const auto& r : regions_) {
    if (r->handle() == handle) return r;
  }
  return nullptr;
}

void Nic::deregister_memory(std::uint64_t handle) {
  std::erase_if(regions_,
                [handle](const auto& r) { return r->handle() == handle; });
}

std::shared_ptr<Vi> Nic::create_vi() {
  auto send_cq = std::make_shared<CompletionQueue>(
      sim_, node_->name() + ".scq" + std::to_string(next_vi_id_));
  auto recv_cq = std::make_shared<CompletionQueue>(
      sim_, node_->name() + ".rcq" + std::to_string(next_vi_id_));
  return create_vi(std::move(send_cq), std::move(recv_cq));
}

std::shared_ptr<Vi> Nic::create_vi(std::shared_ptr<CompletionQueue> send_cq,
                                   std::shared_ptr<CompletionQueue> recv_cq) {
  auto vi = std::make_shared<Vi>(this, next_vi_id_++, std::move(send_cq),
                                 std::move(recv_cq));
  vis_.push_back(vi);
  return vi;
}

void Nic::connect(Vi& a, Vi& b) {
  if (a.peer_ != nullptr || b.peer_ != nullptr) {
    throw std::logic_error("Nic::connect: VI already connected");
  }
  a.peer_ = &b;
  b.peer_ = &a;
}

void Nic::post_send_internal(Vi* vi, Descriptor d,
                             sim::InlineHandler then) {
  // Doorbell + sender-side library work, serialized on the host TX path.
  const SimTime doorbell = model_.sender_time(d.length);
  auto posting = std::make_unique<Posting>(
      Posting{Work{vi, std::move(d)}, std::move(then)});
  node_->tx_host().use(doorbell, [this, p = std::move(posting)] {
    tx_q_.push_back(std::move(p->work));
    kick(tx_busy_, &Nic::tx_step);
    p->then();
  });
}

void Nic::kick(bool& busy, void (Nic::*step)()) {
  if (busy) return;
  busy = true;
  sim_->schedule(SimTime::zero(), [this, step] { (this->*step)(); });
}

void Nic::tx_step() {
  if (tx_q_.empty()) {
    tx_busy_ = false;
    return;
  }
  const Work& w = tx_q_.front();
  // DMA out of host memory and across the wire into the peer NIC.
  w.vi->peer_->nic_->node_->link_in().use(model_.wire_time(w.desc.length),
                                          [this] { tx_done(); });
}

void Nic::tx_done() {
  // Propagation is latency, not occupancy: the engine moves on at once.
  flight_.push_back(std::move(tx_q_.front()));
  tx_q_.pop_front();
  sim_->schedule(profile_.propagation, [this] { land(); });
  tx_step();
}

void Nic::land() {
  Nic* peer_nic = flight_.front().vi->peer_->nic_;
  peer_nic->rx_q_.push_back(std::move(flight_.front()));
  flight_.pop_front();
  peer_nic->kick(peer_nic->rx_busy_, &Nic::rx_step);
}

void Nic::rx_step() {
  if (rx_q_.empty()) {
    rx_busy_ = false;
    return;
  }
  const Descriptor& d = rx_q_.front().desc;
  // Receiver-side completion processing. RDMA writes land by DMA with no
  // receive-descriptor matching or host per-byte work — that is their
  // point; only a small NIC handling cost applies.
  const SimTime cost = d.op == Opcode::kRdmaWrite ? profile_.recv_per_seg
                                                  : model_.recv_time(d.length);
  node_->rx_proto().use(cost, [this] { rx_done(); });
}

void Nic::rx_done() {
  Work w = std::move(rx_q_.front());
  rx_q_.pop_front();
  complete(w);
  rx_step();
}

void Nic::complete(Work& w) {
  Vi* sender_vi = w.vi;
  Vi* receiver_vi = sender_vi->peer_;
  Descriptor& d = w.desc;
  const SimTime now = sim_->now();

  if (d.op == Opcode::kRdmaWrite) {
    Completion c;
    c.op = Opcode::kRdmaWrite;
    c.cookie = d.cookie;
    c.bytes = d.length;
    c.timestamp = now;
    auto remote = find_region(d.remote_handle);
    if (!remote || d.remote_offset + d.length > remote->size()) {
      c.status = Status::kLengthError;
    } else {
      if (d.region) {
        // Models the NIC's DMA between registered regions, not a host
        // CPU copy; never charged to the ledger. svlint:allow(SV008)
        std::memcpy(remote->data() + d.remote_offset,
                    d.region->data() + d.offset, d.length);
      }
      c.status = Status::kSuccess;
      if (d.remote_notify) {
        // RDMA write with immediate: consume one posted receive
        // descriptor (dataless) and surface a receive completion.
        if (receiver_vi->recv_queue_.empty()) {
          ++recv_misses_;
          c.status = Status::kNoReceiveDescriptor;
        } else {
          Descriptor rd = std::move(receiver_vi->recv_queue_.front());
          receiver_vi->recv_queue_.pop_front();
          Completion recv_c;
          recv_c.op = Opcode::kRdmaWrite;
          recv_c.status = Status::kSuccess;
          recv_c.bytes = d.length;
          recv_c.immediate = d.immediate;
          recv_c.cookie = rd.cookie;
          recv_c.timestamp = now;
          receiver_vi->recv_cq_->push(recv_c);
        }
      }
    }
    sender_vi->send_cq_->push(c);
    if (c.status == Status::kSuccess) ++sends_completed_;
    return;
  }

  // Two-sided send: must match a posted receive descriptor.
  if (receiver_vi->recv_queue_.empty()) {
    ++recv_misses_;
    Completion c;
    c.op = Opcode::kSend;
    c.status = Status::kNoReceiveDescriptor;
    c.cookie = d.cookie;
    c.bytes = d.length;
    c.timestamp = now;
    sender_vi->send_cq_->push(c);
    return;
  }
  Descriptor rd = std::move(receiver_vi->recv_queue_.front());
  receiver_vi->recv_queue_.pop_front();

  Completion send_c;
  send_c.op = Opcode::kSend;
  send_c.cookie = d.cookie;
  send_c.bytes = d.length;
  send_c.timestamp = now;
  Completion recv_c;
  recv_c.op = Opcode::kSend;
  recv_c.cookie = rd.cookie;
  recv_c.bytes = d.length;
  recv_c.immediate = d.immediate;
  recv_c.timestamp = now;

  if (d.length > rd.length) {
    send_c.status = Status::kLengthError;
    recv_c.status = Status::kLengthError;
  } else {
    send_c.status = Status::kSuccess;
    recv_c.status = Status::kSuccess;
    if (d.region && rd.region) {
      // Models the NIC's DMA from the sender's registered region into the
      // posted receive descriptor's region. svlint:allow(SV008)
      std::memcpy(rd.region->data() + rd.offset, d.region->data() + d.offset,
                  d.length);
    }
    ++sends_completed_;
  }
  sender_vi->send_cq_->push(send_c);
  receiver_vi->recv_cq_->push(recv_c);
}

}  // namespace sv::via
