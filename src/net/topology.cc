#include "net/topology.h"

#include <climits>

#include "common/check.h"
#include "sim/resource.h"

namespace sv::net {
namespace {

/// Row-major slot `row * width + col` of a flat link table. Every index
/// is a non-negative switch/port number, so the int product converts
/// losslessly.
std::size_t slot(int row, int width, int col) {
  return static_cast<std::size_t>(row * width + col);
}

}  // namespace

const char* topology_kind_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kSingleCrossbar:
      return "crossbar";
    case TopologyKind::kFatTree:
      return "fat_tree";
    case TopologyKind::kEdgeCore:
      return "edge_core";
  }
  return "?";
}

TopologySpec TopologySpec::single_crossbar() { return TopologySpec{}; }

TopologySpec TopologySpec::fat_tree(int k, int oversubscription) {
  TopologySpec s;
  s.kind = TopologyKind::kFatTree;
  s.fat_tree_k = k;
  s.oversubscription = oversubscription;
  return s;
}

TopologySpec TopologySpec::edge_core(int nodes_per_edge, int uplinks_per_edge,
                                     int oversubscription) {
  TopologySpec s;
  s.kind = TopologyKind::kEdgeCore;
  s.nodes_per_edge = nodes_per_edge;
  s.uplinks_per_edge = uplinks_per_edge;
  s.oversubscription = oversubscription;
  return s;
}

int TopologySpec::max_nodes() const {
  switch (kind) {
    case TopologyKind::kSingleCrossbar:
      return INT_MAX;
    case TopologyKind::kFatTree:
      return fat_tree_k * fat_tree_k * fat_tree_k / 4;
    case TopologyKind::kEdgeCore:
      // An edge switch is a finite crossbar but edges are unbounded.
      return INT_MAX;
  }
  return 0;
}

Topology::Topology(sim::Simulation* sim, const TopologySpec& spec,
                   int node_count)
    : sim_(sim), spec_(spec), node_count_(node_count) {
  SV_ASSERT(node_count > 0, "Topology: empty cluster");
  SV_ASSERT(spec_.oversubscription >= 1,
            "Topology: oversubscription ratio must be >= 1");
  switch (spec_.kind) {
    case TopologyKind::kSingleCrossbar:
      // No fabric structure, no links, no metrics: the historical model.
      edge_count_ = 1;
      break;
    case TopologyKind::kFatTree:
      SV_ASSERT(spec_.fat_tree_k >= 2 && spec_.fat_tree_k % 2 == 0,
                "Topology: fat-tree arity must be even and >= 2");
      SV_ASSERT(node_count <= spec_.max_nodes(),
                "Topology: node count exceeds fat-tree host capacity k^3/4");
      build_fat_tree();
      break;
    case TopologyKind::kEdgeCore:
      SV_ASSERT(spec_.nodes_per_edge >= 1 && spec_.uplinks_per_edge >= 1,
                "Topology: edge-core shape must be positive");
      build_edge_core();
      break;
  }
}

void Topology::add_link(std::string name, int from_sw, int to_sw,
                        PerByteCost per_byte) {
  auto l = std::make_unique<Link>();
  l->name = std::move(name);
  l->from_switch = from_sw;
  l->to_switch = to_sw;
  l->per_byte = per_byte;
  l->res = std::make_unique<sim::Resource>(sim_, 1, "topo." + l->name);
  obs::Registry& reg = sim_->obs().registry;
  const std::string ll = "{link=" + l->name + "}";
  l->c_frames = &reg.counter("topo.link_frames" + ll);
  l->c_bytes = &reg.counter("topo.link_bytes" + ll);
  l->c_busy_ns = &reg.counter("topo.link_busy_ns" + ll);
  l->c_wait_ns = &reg.counter("topo.link_wait_ns" + ll);
  reg.counter("topo.links").inc();
  links_.push_back(std::move(l));
}

void Topology::build_fat_tree() {
  const int k = spec_.fat_tree_k;
  half_k_ = k / 2;
  cores_ = half_k_ * half_k_;
  const int pods = k;
  const int edges = pods * half_k_;
  edge_count_ = edges;
  // Switch-id spaces for naming/validation: edges, then aggs, then cores.
  const int agg_base = edges;
  const int core_base = edges + pods * half_k_;

  const PerByteCost host = spec_.host_link;
  const PerByteCost core_tier = PerByteCost::picos_per_byte(
      host.ps_per_byte() * spec_.oversubscription);

  // Edge tier: every edge switch pairs with every aggregation switch in its
  // pod, at host speed (k/2 hosts share k/2 uplinks — 1:1 below the pod).
  edge_up_.assign(slot(edges, half_k_, 0), 0);
  edge_down_.assign(slot(edges, half_k_, 0), 0);
  for (int p = 0; p < pods; ++p) {
    for (int e = 0; e < half_k_; ++e) {
      const int edge = p * half_k_ + e;
      for (int a = 0; a < half_k_; ++a) {
        const int agg = p * half_k_ + a;
        const std::string en = "p" + std::to_string(p) + ".e" +
                               std::to_string(e);
        const std::string an = "p" + std::to_string(p) + ".a" +
                               std::to_string(a);
        edge_up_[slot(edge, half_k_, a)] =
            static_cast<std::uint32_t>(links_.size());
        add_link(en + "->" + an, edge, agg_base + agg, host);
        edge_down_[slot(edge, half_k_, a)] =
            static_cast<std::uint32_t>(links_.size());
        add_link(an + "->" + en, agg_base + agg, edge, host);
      }
    }
  }

  // Aggregation tier: agg j of every pod owns core legs
  // [j*k/2, (j+1)*k/2), scaled by the oversubscription ratio.
  agg_up_.assign(slot(pods * half_k_, half_k_, 0), 0);
  agg_down_.assign(slot(pods * half_k_, half_k_, 0), 0);
  for (int p = 0; p < pods; ++p) {
    for (int a = 0; a < half_k_; ++a) {
      const int agg = p * half_k_ + a;
      for (int leg = 0; leg < half_k_; ++leg) {
        const int core = a * half_k_ + leg;
        const std::string an = "p" + std::to_string(p) + ".a" +
                               std::to_string(a);
        const std::string cn = "c" + std::to_string(core);
        const std::size_t idx = slot(agg, half_k_, leg);
        agg_up_[idx] = static_cast<std::uint32_t>(links_.size());
        add_link(an + "->" + cn, agg_base + agg, core_base + core, core_tier);
        agg_down_[idx] = static_cast<std::uint32_t>(links_.size());
        add_link(cn + "->" + an, core_base + core, agg_base + agg, core_tier);
      }
    }
  }
}

void Topology::build_edge_core() {
  const int m = spec_.nodes_per_edge;
  const int u = spec_.uplinks_per_edge;
  const int edges = (node_count_ + m - 1) / m;
  edge_count_ = edges;
  const int core_base = edges;

  // Uplink rate: aggregate host bandwidth under an edge (m links) is
  // `oversubscription` times the edge's aggregate uplink bandwidth
  // (u links), so each uplink serializes at host * u * r / m ps per byte.
  const std::int64_t up_ps = spec_.host_link.ps_per_byte() * u *
                             spec_.oversubscription / m;
  const PerByteCost uplink = PerByteCost::picos_per_byte(
      up_ps > 0 ? up_ps : 1);

  edge_up_.assign(slot(edges, u, 0), 0);
  edge_down_.assign(slot(edges, u, 0), 0);
  for (int e = 0; e < edges; ++e) {
    for (int i = 0; i < u; ++i) {
      const std::string en = "e" + std::to_string(e);
      const std::string cn = "c" + std::to_string(i);
      edge_up_[slot(e, u, i)] =
          static_cast<std::uint32_t>(links_.size());
      add_link(en + "->" + cn, e, core_base + i, uplink);
      edge_down_[slot(e, u, i)] =
          static_cast<std::uint32_t>(links_.size());
      add_link(cn + "->" + en, core_base + i, e, uplink);
    }
  }
}

int Topology::edge_switch_of(int node) const {
  SV_ASSERT(node >= 0 && node < node_count_,
            "Topology::edge_switch_of: unknown node");
  switch (spec_.kind) {
    case TopologyKind::kSingleCrossbar:
      return 0;
    case TopologyKind::kFatTree:
      return node / half_k_;
    case TopologyKind::kEdgeCore:
      return node / spec_.nodes_per_edge;
  }
  return 0;
}

Topology::Path Topology::route(int src, int dst) const {
  Path p;
  if (spec_.kind == TopologyKind::kSingleCrossbar || src == dst) return p;
  const int es = edge_switch_of(src);
  const int ed = edge_switch_of(dst);
  if (es == ed) return p;  // same edge switch: intra-crossbar, no fabric hop

  // The up-path choice is a pure symmetric function of (src + dst): the
  // same aggregation/core serves both directions, so route(a, b) mirrors
  // route(b, a) and repeated calls agree bit-for-bit.
  const std::uint32_t key =
      static_cast<std::uint32_t>(src) + static_cast<std::uint32_t>(dst);

  if (spec_.kind == TopologyKind::kEdgeCore) {
    const int u = spec_.uplinks_per_edge;
    const int i = static_cast<int>(key % static_cast<std::uint32_t>(u));
    p.hops = 2;
    p.link[0] = edge_up_[slot(es, u, i)];
    p.link[1] = edge_down_[slot(ed, u, i)];
    return p;
  }

  // Fat-tree.
  const int ps = es / half_k_;
  const int pd = ed / half_k_;
  if (ps == pd) {
    const int a = static_cast<int>(key % static_cast<std::uint32_t>(half_k_));
    p.hops = 2;
    p.link[0] = edge_up_[slot(es, half_k_, a)];
    p.link[1] = edge_down_[slot(ed, half_k_, a)];
    return p;
  }
  const int core =
      static_cast<int>(key % static_cast<std::uint32_t>(cores_));
  const int a = core / half_k_;   // the pod agg wired to this core
  const int leg = core % half_k_;
  p.hops = 4;
  p.link[0] = edge_up_[slot(es, half_k_, a)];
  p.link[1] = agg_up_[slot(ps * half_k_ + a, half_k_, leg)];
  p.link[2] = agg_down_[slot(pd * half_k_ + a, half_k_, leg)];
  p.link[3] = edge_down_[slot(ed, half_k_, a)];
  return p;
}

SimTime Topology::path_latency(int src, int dst) const {
  return spec_.hop_latency *
         static_cast<std::int64_t>(route(src, dst).hops);
}

void Topology::traverse(int src, int dst, std::uint64_t bytes) {
  Walk walk;
  sim_->await("traverse", [&](auto done) {
    traverse(walk, src, dst, bytes, std::move(done));
  });
}

void Topology::finish_hop(Walk& walk, Link& link) {
  const SimTime hold = link.per_byte.for_bytes(walk.bytes);
  link.res->release();
  link.c_frames->inc();
  link.c_bytes->inc(walk.bytes);
  link.c_busy_ns->inc(static_cast<std::uint64_t>(hold.ns()));
  link.c_wait_ns->inc(static_cast<std::uint64_t>(walk.waited.ns()));
  ++walk.hop;
}

double Topology::edge_uplink_bytes_per_sec(int e) const {
  switch (spec_.kind) {
    case TopologyKind::kSingleCrossbar:
      return 0.0;
    case TopologyKind::kEdgeCore: {
      double total = 0.0;
      for (int i = 0; i < spec_.uplinks_per_edge; ++i) {
        total += links_[edge_up_[slot(e, spec_.uplinks_per_edge, i)]]
                     ->bytes_per_sec();
      }
      return total;
    }
    case TopologyKind::kFatTree: {
      // The pod's agg→core tier, attributed evenly across its k/2 edges.
      const int pod = e / half_k_;
      double total = 0.0;
      for (int a = 0; a < half_k_; ++a) {
        for (int leg = 0; leg < half_k_; ++leg) {
          total += links_[agg_up_[slot(pod * half_k_ + a, half_k_, leg)]]
                       ->bytes_per_sec();
        }
      }
      return total / half_k_;
    }
  }
  return 0.0;
}

}  // namespace sv::net
