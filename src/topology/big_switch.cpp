#include "topology/big_switch.h"

namespace gurita {

BigSwitch::BigSwitch(const Config& config) : num_hosts_(config.num_hosts) {
  GURITA_CHECK_MSG(config.num_hosts >= 2, "big switch needs >= 2 hosts");
  GURITA_CHECK_MSG(config.port_rate > 0, "port rate must be positive");
  topo_ = Topology(2 * static_cast<std::size_t>(num_hosts_), config.port_rate);
}

LinkId BigSwitch::uplink(int host) const {
  GURITA_CHECK_MSG(host >= 0 && host < num_hosts_, "host out of range");
  return LinkId{2 * static_cast<std::uint64_t>(host)};
}

LinkId BigSwitch::downlink(int host) const {
  GURITA_CHECK_MSG(host >= 0 && host < num_hosts_, "host out of range");
  return LinkId{2 * static_cast<std::uint64_t>(host) + 1};
}

std::vector<LinkId> BigSwitch::route(FlowId flow, int src_host,
                                     int dst_host) const {
  (void)flow;  // a single path exists; nothing to hash
  GURITA_CHECK_MSG(src_host != dst_host, "route between identical hosts");
  return {uplink(src_host), downlink(dst_host)};
}

}  // namespace gurita
