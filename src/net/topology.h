// Explicit switch topologies: the fabric above the hosts.
//
// The seed repo modeled the paper's testbed — 16 nodes behind one
// non-blocking crossbar — implicitly: a frame's wire stage charged only the
// destination host's link_in resource, so the switch fabric itself could
// never be the bottleneck. Production scale means hundreds-to-thousands of
// nodes behind *oversubscribed* uplinks, where edge→core contention and
// incast onto hot nodes dominate. Topology makes that fabric explicit:
//
//   hosts attach to edge switches; edge switches reach each other through
//   capacity-limited fabric links (edge↔aggregation↔core), each modeled as
//   a sim::Resource with its own serialization rate. A routed (src, dst)
//   path charges every traversed link in order, so shared uplinks queue and
//   the queueing is visible per link in the metrics registry.
//
// Presets:
//   single_crossbar  the historical model. route() is always empty, no
//                    links exist, and the executed schedule is bit-identical
//                    to the pre-topology fabric (digest pins prove it).
//   fat_tree(k)      the classic 3-level k-ary fat-tree: k pods of k/2 edge
//                    and k/2 aggregation switches, (k/2)^2 cores, up to
//                    k^3/4 hosts filled in id order. oversubscription > 1
//                    slows the agg↔core tier by that factor.
//   edge_core(m,u,r) 2-level leaf-spine: edge switches of m hosts, u
//                    uplinks each (one per core switch), sized so aggregate
//                    host bandwidth under an edge is r times its aggregate
//                    uplink bandwidth.
//
// Routing is deterministic and symmetric by construction: the up-path
// switch choice is a pure function of (src + dst), so route(a, b) is the
// mirror of route(b, a) and two Topology instances built from the same
// (spec, node_count) route identically (tests/net/topology_test.cc).
//
// Layering: Topology lives below Cluster (cluster.h hands each Node a
// pointer) and is consulted by net::Pipe's wire stage, which traverses the
// routed path *before* charging the destination host's link_in. The wire
// stage is an event-driven state machine, so traversal is a callback form
// over caller-owned progress (Walk); a blocking wrapper serves simulated
// processes (benchmark probes, tests).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace sv::net {

enum class TopologyKind { kSingleCrossbar, kFatTree, kEdgeCore };

[[nodiscard]] const char* topology_kind_name(TopologyKind k);

struct TopologySpec {
  TopologyKind kind = TopologyKind::kSingleCrossbar;

  /// kFatTree: the (even) arity k. Capacity k^3/4 hosts.
  int fat_tree_k = 4;

  /// kEdgeCore: hosts per edge switch and uplinks per edge (= number of
  /// core switches; uplink i of every edge lands on core i).
  int nodes_per_edge = 16;
  int uplinks_per_edge = 2;

  /// Oversubscription ratio r >= 1: aggregate host bandwidth below an edge
  /// (fat-tree: below a pod's aggregation tier) is r times the aggregate
  /// bandwidth of the links above it. r = 1 is full bisection. Integer so
  /// link serialization costs stay exact.
  int oversubscription = 1;

  /// Serialization cost of a host-speed fabric link. 10 ns/B ≈ 800 Mbps,
  /// matching the cLAN DMA path the calibration profiles model.
  PerByteCost host_link = PerByteCost::picos_per_byte(10'000);

  /// Extra propagation per traversed fabric link (switch transit latency).
  /// Pure latency, not occupancy, so it cannot reorder frames.
  SimTime hop_latency = SimTime::nanoseconds(500);

  [[nodiscard]] static TopologySpec single_crossbar();
  [[nodiscard]] static TopologySpec fat_tree(int k, int oversubscription = 1);
  [[nodiscard]] static TopologySpec edge_core(int nodes_per_edge,
                                              int uplinks_per_edge,
                                              int oversubscription);

  /// Host capacity of the fabric this spec describes (INT32_MAX for the
  /// crossbar: it has no structure to exhaust).
  [[nodiscard]] int max_nodes() const;
};

class Topology {
 public:
  /// One directed fabric link between two switches. `res` (capacity 1)
  /// serializes frames; `per_byte` is its serialization rate.
  struct Link {
    std::string name;
    int from_switch = 0;
    int to_switch = 0;
    PerByteCost per_byte;
    std::unique_ptr<sim::Resource> res;
    obs::Counter* c_frames = nullptr;
    obs::Counter* c_bytes = nullptr;
    obs::Counter* c_busy_ns = nullptr;
    obs::Counter* c_wait_ns = nullptr;

    /// Implied rate in bytes/second (reporting / capacity checks).
    [[nodiscard]] double bytes_per_sec() const {
      return per_byte.ps_per_byte() == 0
                 ? 0.0
                 : 1e12 / static_cast<double>(per_byte.ps_per_byte());
    }
  };

  /// A routed path: at most 4 fabric links (edge→agg→core→agg→edge), in
  /// traversal order. Empty for same-edge (crossbar) traffic.
  struct Path {
    std::uint32_t hops = 0;
    std::uint32_t link[4] = {0, 0, 0, 0};
  };

  /// Builds the fabric for `node_count` hosts. node_count must not exceed
  /// spec.max_nodes(). The crossbar spec builds no links and registers no
  /// metrics, preserving the pre-topology registry byte-for-byte.
  Topology(sim::Simulation* sim, const TopologySpec& spec, int node_count);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] int node_count() const { return node_count_; }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Link& link(std::size_t i) const { return *links_[i]; }

  /// Edge switch hosting `node` (0 for the crossbar).
  [[nodiscard]] int edge_switch_of(int node) const;
  [[nodiscard]] int edge_switch_count() const { return edge_count_; }

  /// The unique deterministic path from src to dst. Pure: no state changes,
  /// so two calls (or two Topology instances from the same spec) agree.
  [[nodiscard]] Path route(int src, int dst) const;
  [[nodiscard]] std::size_t hop_count(int src, int dst) const {
    return route(src, dst).hops;
  }

  /// Extra propagation latency of the routed path (hops * hop_latency).
  [[nodiscard]] SimTime path_latency(int src, int dst) const;

  /// Progress of one frame over its routed path, for the callback form of
  /// traverse(). The caller owns it and keeps it alive until `then` runs;
  /// net::Pipe's wire stage holds one, since a pipe crosses the fabric one
  /// frame at a time.
  struct Walk {
    Path path;
    std::uint32_t hop = 0;
    std::uint64_t bytes = 0;
    SimTime requested{};  // when the current hop asked for its link
    SimTime waited{};     // how long the current hop queued for it
  };

  /// Charges every link on route(src, dst), in order: FIFO-acquires the
  /// link, holds it for the frame's serialization time, releases — then
  /// runs `then`. `then` runs inline when nothing had to wait (no hops, or
  /// free links with zero hold), otherwise from the event that ends the
  /// last hop. This is where uplink contention and incast queueing
  /// physically happen. `then` rides by value inside the per-hop handlers,
  /// so keep it small (a pointer or two).
  template <typename F>
  void traverse(Walk& walk, int src, int dst, std::uint64_t bytes, F then);

  /// Blocking form for a simulated process: the callback form, with the
  /// process suspended until the last hop is done (the same events).
  void traverse(int src, int dst, std::uint64_t bytes);

  /// Aggregate uplink bandwidth leaving edge switch `e`, in bytes/second
  /// (fat-tree: the pod's agg→core tier, attributed evenly across the
  /// pod's edges). The capacity contract topology_test checks:
  /// host_bw * nodes_under_edge == oversubscription * this value.
  [[nodiscard]] double edge_uplink_bytes_per_sec(int e) const;

 private:
  void add_link(std::string name, int from_sw, int to_sw,
                PerByteCost per_byte);
  template <typename F>
  void next_hop(Walk& walk, F then);
  /// Releases the current hop's link and books its counters.
  void finish_hop(Walk& walk, Link& link);
  void build_fat_tree();
  void build_edge_core();

  sim::Simulation* sim_;
  TopologySpec spec_;
  int node_count_;
  int edge_count_ = 1;
  // Fat-tree shape (derived from spec_.fat_tree_k).
  int half_k_ = 0;       // k/2: hosts per edge, edges per pod, aggs per pod
  int cores_ = 0;        // (k/2)^2
  std::vector<std::unique_ptr<Link>> links_;
  // Dense link-id lookup tables, filled during build:
  //   fat-tree: up[edge][agg_in_pod], down[edge][agg_in_pod],
  //             agg_up[pod][agg_in_pod][core_leg], agg_down[...]
  //   edge-core: up[edge][uplink], down[edge][uplink]
  std::vector<std::uint32_t> edge_up_;    // edge-tier up links
  std::vector<std::uint32_t> edge_down_;  // edge-tier down links
  std::vector<std::uint32_t> agg_up_;     // agg→core
  std::vector<std::uint32_t> agg_down_;   // core→agg
};

template <typename F>
void Topology::traverse(Walk& walk, int src, int dst, std::uint64_t bytes,
                        F then) {
  walk.path = route(src, dst);
  walk.hop = 0;
  walk.bytes = bytes;
  next_hop(walk, std::move(then));
}

template <typename F>
void Topology::next_hop(Walk& walk, F then) {
  if (walk.hop == walk.path.hops) {
    then();
    return;
  }
  Link& l = *links_[walk.path.link[walk.hop]];
  walk.requested = sim_->now();
  l.res->acquire([this, &walk, &l, then = std::move(then)]() mutable {
    walk.waited = sim_->now() - walk.requested;
    const SimTime hold = l.per_byte.for_bytes(walk.bytes);
    if (hold > SimTime::zero()) {
      sim_->engine().schedule(
          hold, [this, &walk, &l, then = std::move(then)]() mutable {
            finish_hop(walk, l);
            next_hop(walk, std::move(then));
          });
      return;
    }
    finish_hop(walk, l);
    next_hop(walk, std::move(then));
  });
}

}  // namespace sv::net
