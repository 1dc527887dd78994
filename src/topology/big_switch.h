// The "one big switch" fabric (§II Settings): a non-blocking core
// connecting N hosts, where the only contention points are the hosts'
// ingress (uplink) and egress (downlink) ports — the abstraction under
// which Varys/Aalo-style analyses reason about coflows.
//
// Realized as one duplex port per host: host h's uplink (host → core) is
// link 2h and its downlink (core → host) is link 2h + 1. Every route is
// exactly [src uplink, dst downlink].
#pragma once

#include "common/units.h"
#include "topology/fabric.h"

namespace gurita {

class BigSwitch final : public Fabric {
 public:
  struct Config {
    int num_hosts = 128;
    Rate port_rate = gbps(10.0);
  };

  explicit BigSwitch(const Config& config);

  [[nodiscard]] const Topology& topology() const override { return topo_; }
  [[nodiscard]] int num_hosts() const override { return num_hosts_; }
  [[nodiscard]] std::vector<LinkId> route(FlowId flow, int src_host,
                                          int dst_host) const override;

  /// Uplink (host -> core) of host `h`; the host's sender port.
  [[nodiscard]] LinkId uplink(int host) const;
  /// Downlink (core -> host) of host `h`; the host's receiver port.
  [[nodiscard]] LinkId downlink(int host) const;

 private:
  int num_hosts_;
  Topology topo_;
};

}  // namespace gurita
