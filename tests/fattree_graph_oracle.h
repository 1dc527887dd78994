// Test oracle: the fat-tree and big switch built as explicit node/link
// graphs, with every path found by looking each hop's (src, dst) endpoint
// pair up in a hash map. This is how the fabrics used to number their
// links; the shipped FatTree and BigSwitch (topology/) compute the same ids
// from coordinates in closed form and are held to this builder's ids, link
// counts, capacities and connectivity (topology_test.cpp). The ECMP hash is
// copied too, so routes compare under the same hash.
// Test-only: lives in tests/, never linked into the library.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace gurita::test {

struct OracleNodeTag {};
using NodeId = TypedId<OracleNodeTag>;

enum class NodeKind { kHost, kEdgeSwitch, kAggSwitch, kCoreSwitch };

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::kHost;
  /// Pod number for host/edge/agg nodes; -1 for core switches.
  int pod = -1;
  /// Index of the node within its (kind, pod) group.
  int index = 0;
};

/// A directed, fixed-capacity link between two nodes.
struct Link {
  LinkId id;
  NodeId src;
  NodeId dst;
  Rate capacity = 0;
};

/// A directed graph; links are numbered in insertion order.
class Graph {
 public:
  NodeId add_node(NodeKind kind, int pod, int index) {
    const NodeId id{nodes_.size()};
    nodes_.push_back(Node{id, kind, pod, index});
    return id;
  }

  LinkId add_link(NodeId src, NodeId dst, Rate capacity) {
    GURITA_CHECK_MSG(src.value() < nodes_.size(), "link src out of range");
    GURITA_CHECK_MSG(dst.value() < nodes_.size(), "link dst out of range");
    GURITA_CHECK_MSG(src != dst, "self loop");
    GURITA_CHECK_MSG(capacity > 0, "link capacity must be positive");
    GURITA_CHECK_MSG(!find_link(src, dst).valid(), "duplicate link");
    const LinkId id{links_.size()};
    links_.push_back(Link{id, src, dst, capacity});
    by_endpoints_.emplace(key(src, dst), id);
    return id;
  }

  /// Adds both directions with the same capacity; returns the forward link.
  LinkId add_duplex(NodeId a, NodeId b, Rate capacity) {
    const LinkId forward = add_link(a, b, capacity);
    add_link(b, a, capacity);
    return forward;
  }

  /// LinkId for the directed edge src -> dst; invalid() if absent.
  [[nodiscard]] LinkId find_link(NodeId src, NodeId dst) const {
    const auto it = by_endpoints_.find(key(src, dst));
    return it == by_endpoints_.end() ? LinkId::invalid() : it->second;
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const {
    GURITA_CHECK_MSG(id.value() < nodes_.size(), "node id out of range");
    return nodes_[id.value()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    GURITA_CHECK_MSG(id.value() < links_.size(), "link id out of range");
    return links_[id.value()];
  }

  /// Number of nodes of the given kind.
  [[nodiscard]] std::size_t count(NodeKind kind) const {
    std::size_t n = 0;
    for (const Node& node : nodes_) {
      if (node.kind == kind) ++n;
    }
    return n;
  }

 private:
  static std::uint64_t key(NodeId src, NodeId dst) {
    return (src.value() << 32) | (dst.value() & 0xffffffffULL);
  }
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::unordered_map<std::uint64_t, LinkId> by_endpoints_;
};

/// The fat-tree's ECMP hash: (salt, flow, src, dst) mixed by SplitMix64's
/// finalizer; route() splits it into (up choice, core choice).
inline std::uint64_t ecmp_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t ecmp_hash(std::uint64_t salt, FlowId flow, int src_host,
                               int dst_host) {
  std::uint64_t h = salt ^ 0x9e3779b97f4a7c15ULL;
  h = ecmp_mix(h ^ flow.value());
  h = ecmp_mix(h ^ static_cast<std::uint64_t>(src_host));
  h = ecmp_mix(h ^ static_cast<std::uint64_t>(dst_host));
  return h;
}

/// k-ary fat-tree as a graph: per pod its edge, agg and host nodes, then
/// the core groups; links host <-> edge, edge <-> agg (full bipartite per
/// pod), agg g <-> every core of group g — each duplex, in that order.
class FatTreeGraph {
 public:
  FatTreeGraph(int k, Rate link_capacity, std::uint64_t ecmp_salt = 0)
      : k_(k), half_(k / 2), ecmp_salt_(ecmp_salt) {
    GURITA_CHECK_MSG(k_ >= 2 && k_ % 2 == 0, "fat-tree k must be even, >= 2");
    const int hosts_per_pod = half_ * half_;
    for (int pod = 0; pod < k_; ++pod) {
      for (int e = 0; e < half_; ++e)
        edges_.push_back(graph_.add_node(NodeKind::kEdgeSwitch, pod, e));
      for (int a = 0; a < half_; ++a)
        aggs_.push_back(graph_.add_node(NodeKind::kAggSwitch, pod, a));
      for (int h = 0; h < hosts_per_pod; ++h)
        hosts_.push_back(graph_.add_node(NodeKind::kHost, pod, h));
    }
    for (int group = 0; group < half_; ++group) {
      for (int member = 0; member < half_; ++member)
        cores_.push_back(
            graph_.add_node(NodeKind::kCoreSwitch, -1, group * half_ + member));
    }

    // host <-> edge
    for (int h = 0; h < num_hosts(); ++h)
      graph_.add_duplex(hosts_[h], edge_of_host(h), link_capacity);
    // edge <-> agg (full bipartite within pod)
    for (int pod = 0; pod < k_; ++pod)
      for (int e = 0; e < half_; ++e)
        for (int a = 0; a < half_; ++a)
          graph_.add_duplex(edge_switch(pod, e), agg_switch(pod, a),
                            link_capacity);
    // agg <-> core: agg `g` of each pod connects to all cores in group `g`
    for (int pod = 0; pod < k_; ++pod)
      for (int g = 0; g < half_; ++g)
        for (int m = 0; m < half_; ++m)
          graph_.add_duplex(agg_switch(pod, g), core_switch(g, m),
                            link_capacity);
  }

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] int num_hosts() const { return k_ * k_ * k_ / 4; }

  [[nodiscard]] NodeId host(int h) const { return hosts_.at(h); }
  [[nodiscard]] int pod_of_host(int h) const { return h / (half_ * half_); }
  [[nodiscard]] NodeId edge_of_host(int h) const {
    return edge_switch(pod_of_host(h), h % (half_ * half_) / half_);
  }
  [[nodiscard]] NodeId edge_switch(int pod, int index) const {
    return edges_.at(pod * half_ + index);
  }
  [[nodiscard]] NodeId agg_switch(int pod, int index) const {
    return aggs_.at(pod * half_ + index);
  }
  [[nodiscard]] NodeId core_switch(int group, int member) const {
    return cores_.at(group * half_ + member);
  }

  /// The shortest path chosen by (up_choice, core_choice), hop by hop
  /// through find_link.
  [[nodiscard]] std::vector<LinkId> path(int src_host, int dst_host,
                                         std::uint64_t up_choice,
                                         std::uint64_t core_choice) const {
    GURITA_CHECK_MSG(src_host != dst_host, "path between identical hosts");
    const NodeId src = hosts_.at(src_host);
    const NodeId dst = hosts_.at(dst_host);
    const NodeId src_edge = edge_of_host(src_host);
    const NodeId dst_edge = edge_of_host(dst_host);

    std::vector<LinkId> links;
    const auto push = [&](NodeId a, NodeId b) {
      const LinkId id = graph_.find_link(a, b);
      GURITA_CHECK_MSG(id.valid(), "fat-tree path traversed a missing link");
      links.push_back(id);
    };

    if (src_edge == dst_edge) {
      push(src, src_edge);
      push(src_edge, dst);
      return links;
    }

    const int src_pod = pod_of_host(src_host);
    const int dst_pod = pod_of_host(dst_host);
    const int agg_idx =
        static_cast<int>(up_choice % static_cast<std::uint64_t>(half_));

    if (src_pod == dst_pod) {
      const NodeId agg = agg_switch(src_pod, agg_idx);
      push(src, src_edge);
      push(src_edge, agg);
      push(agg, dst_edge);
      push(dst_edge, dst);
      return links;
    }

    const int member =
        static_cast<int>(core_choice % static_cast<std::uint64_t>(half_));
    const NodeId up_agg = agg_switch(src_pod, agg_idx);
    const NodeId core = core_switch(agg_idx, member);
    const NodeId down_agg = agg_switch(dst_pod, agg_idx);
    push(src, src_edge);
    push(src_edge, up_agg);
    push(up_agg, core);
    push(core, down_agg);
    push(down_agg, dst_edge);
    push(dst_edge, dst);
    return links;
  }

  /// ECMP: the path picked by the hash of (salt, flow, src, dst).
  [[nodiscard]] std::vector<LinkId> route(FlowId flow, int src_host,
                                          int dst_host) const {
    const std::uint64_t h = ecmp_hash(ecmp_salt_, flow, src_host, dst_host);
    return path(src_host, dst_host, h & 0xffffffffULL, h >> 32);
  }

 private:
  int k_;
  int half_;
  std::uint64_t ecmp_salt_;
  Graph graph_;
  std::vector<NodeId> hosts_;
  std::vector<NodeId> edges_;  // pod-major: pod * half_ + index
  std::vector<NodeId> aggs_;   // pod-major
  std::vector<NodeId> cores_;  // group-major: group * half_ + member
};

/// The big switch as a graph: one core node, then per host its node, its
/// uplink (host -> core) and its downlink (core -> host).
class BigSwitchGraph {
 public:
  BigSwitchGraph(int num_hosts, Rate port_rate) {
    core_ = graph_.add_node(NodeKind::kCoreSwitch, -1, 0);
    for (int h = 0; h < num_hosts; ++h) {
      const NodeId host = graph_.add_node(NodeKind::kHost, 0, h);
      hosts_.push_back(host);
      uplinks_.push_back(graph_.add_link(host, core_, port_rate));
      downlinks_.push_back(graph_.add_link(core_, host, port_rate));
    }
  }

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] NodeId core() const { return core_; }
  [[nodiscard]] NodeId host(int h) const { return hosts_.at(h); }
  [[nodiscard]] LinkId uplink(int h) const { return uplinks_.at(h); }
  [[nodiscard]] LinkId downlink(int h) const { return downlinks_.at(h); }

 private:
  Graph graph_;
  NodeId core_;
  std::vector<NodeId> hosts_;
  std::vector<LinkId> uplinks_;
  std::vector<LinkId> downlinks_;
};

}  // namespace gurita::test
