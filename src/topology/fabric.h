// Fabric abstraction: what the flow simulator needs from a network — a
// per-link capacity table, a host count, and a (stable-per-flow) route
// between two hosts.
//
// Two concrete fabrics implement it:
//  * FatTree (fattree.h) — the paper's evaluation topology, routed by ECMP;
//  * BigSwitch (big_switch.h) — the non-blocking "datacenter fabric as one
//    big switch" abstraction of §II used by the Varys/Aalo line of work,
//    where only host ingress/egress ports can congest.
#pragma once

#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace gurita {

class Fabric {
 public:
  virtual ~Fabric() = default;

  [[nodiscard]] virtual const Topology& topology() const = 0;
  [[nodiscard]] virtual int num_hosts() const = 0;

  /// Directed link path from src_host to dst_host for `flow`; must be
  /// stable for a given (flow, src, dst) triple. Precondition: src != dst,
  /// both in [0, num_hosts()).
  [[nodiscard]] virtual std::vector<LinkId> route(FlowId flow, int src_host,
                                                  int dst_host) const = 0;
};

}  // namespace gurita
