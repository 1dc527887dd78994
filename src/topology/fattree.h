// k-ary fat-tree datacenter topology (Al-Fares et al., SIGCOMM 2008),
// the topology used in the paper's evaluation: 8 pods → 128 servers and
// 80 switches; 48 pods → 27,648 servers and 2,880 switches.
//
// Layout for even k, with n = k/2:
//   - k pods; each pod has n edge switches and n aggregation switches;
//   - each edge switch serves n hosts → H = k^3/4 hosts total, numbered
//     pod-major, so host h hangs off edge switch h / n of pod h / n^2;
//   - n^2 core switches in n groups of n; core group g attaches to
//     aggregation switch g of every pod.
//
// Link ids are computed from these coordinates, never looked up. The
// format (every route, fault plan and snapshot depends on it):
//   - host h: host→edge is 2h, edge→host is 2h + 1;
//   - pod p, edge e, agg a, with i = (p·n + e)·n + a: edge→agg is
//     2H + 2i, agg→edge is 2H + 2i + 1;
//   - pod p, agg g, core member m, with j = (p·n + g)·n + m: agg→core is
//     2H + 2k·n^2 + 2j, core→agg is 2H + 2k·n^2 + 2j + 1;
// which makes 6H = 1.5·k^3 links, all of one capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "topology/fabric.h"
#include "topology/topology.h"

namespace gurita {

class FatTree final : public Fabric {
 public:
  struct Config {
    int k = 8;                         ///< pod count; must be even, >= 2
    Rate link_capacity = gbps(10.0);   ///< uniform everywhere (10G switches)
    std::uint64_t ecmp_salt = 0;       ///< perturbs ECMP hashing
  };

  /// Throws if k is odd, below 2, or so large (k >= 2048) that the host
  /// count overflows an int host index; nothing is allocated first.
  explicit FatTree(const Config& config);

  /// Host count of a k-pod fabric, k^3/4 = k·(k/2)^2. Throws like the
  /// constructor on an invalid k.
  [[nodiscard]] static int host_count(int k);

  [[nodiscard]] const Topology& topology() const override { return topo_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int num_hosts() const override { return num_hosts_; }

  /// ECMP route (Fabric interface). Real switches hash the 5-tuple to pick
  /// among equal-cost next hops; this hashes (flow, src, dst) with the
  /// configured salt — stable for a flow's lifetime, independent across
  /// flows — into path()'s two choices.
  [[nodiscard]] std::vector<LinkId> route(FlowId flow, int src_host,
                                          int dst_host) const override;
  [[nodiscard]] int pod_of_host(int h) const;

  /// Shortest path (as directed link ids) from src host to dst host.
  /// `up_choice` picks the aggregation index (and so the core group) and
  /// `core_choice` the core member, each modulo k/2.
  /// Precondition: src_host != dst_host.
  [[nodiscard]] std::vector<LinkId> path(int src_host, int dst_host,
                                         std::uint64_t up_choice,
                                         std::uint64_t core_choice) const;

 private:
  int k_;
  int half_;  // k/2
  int num_hosts_;
  std::uint64_t ecmp_salt_;
  Topology topo_;
  void check_host(int h) const;
};

}  // namespace gurita
