#include "topology/fattree.h"

#include <climits>
#include <string>

namespace gurita {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t ecmp_hash(std::uint64_t salt, FlowId flow, int src_host,
                        int dst_host) {
  std::uint64_t h = salt ^ 0x9e3779b97f4a7c15ULL;
  h = mix(h ^ flow.value());
  h = mix(h ^ static_cast<std::uint64_t>(src_host));
  h = mix(h ^ static_cast<std::uint64_t>(dst_host));
  return h;
}

}  // namespace

int FatTree::host_count(int k) {
  GURITA_CHECK_MSG(k >= 2 && k % 2 == 0, "fat-tree k must be even, >= 2");
  // (k/2)^2 cannot overflow 64 bits for any int k.
  const std::int64_t per_pod = std::int64_t{k / 2} * (k / 2);
  GURITA_CHECK_MSG(per_pod <= INT_MAX / k,
                   "fat-tree k = " + std::to_string(k) +
                       " has more hosts (k^3/4) than an int host index "
                       "holds; k must be below 2048");
  return static_cast<int>(per_pod * k);
}

FatTree::FatTree(const Config& config)
    : k_(config.k),
      half_(config.k / 2),
      num_hosts_(host_count(config.k)),
      ecmp_salt_(config.ecmp_salt),
      // 6H = 1.5·k^3 links, laid out as fattree.h documents.
      topo_(6 * static_cast<std::size_t>(num_hosts_), config.link_capacity) {}

std::vector<LinkId> FatTree::route(FlowId flow, int src_host,
                                   int dst_host) const {
  const std::uint64_t h = ecmp_hash(ecmp_salt_, flow, src_host, dst_host);
  // Split the hash into two independent choices (up path, core member).
  return path(src_host, dst_host, h & 0xffffffffULL, h >> 32);
}

void FatTree::check_host(int h) const {
  GURITA_CHECK_MSG(h >= 0 && h < num_hosts_, "host index out of range");
}

int FatTree::pod_of_host(int h) const {
  check_host(h);
  return h / (half_ * half_);
}

std::vector<LinkId> FatTree::path(int src_host, int dst_host,
                                  std::uint64_t up_choice,
                                  std::uint64_t core_choice) const {
  check_host(src_host);
  check_host(dst_host);
  GURITA_CHECK_MSG(src_host != dst_host, "path between identical hosts");

  // The link-id format of fattree.h. Edge switches are numbered pod-major
  // (pod·n + e), so host h's edge switch is h / n.
  const std::uint64_t n = static_cast<std::uint64_t>(half_);
  const std::uint64_t src = static_cast<std::uint64_t>(src_host);
  const std::uint64_t dst = static_cast<std::uint64_t>(dst_host);
  const std::uint64_t edge_agg_base = 2 * static_cast<std::uint64_t>(num_hosts_);
  const std::uint64_t agg_core_base =
      edge_agg_base + 2 * static_cast<std::uint64_t>(k_) * n * n;
  const LinkId host_up{2 * src};
  const LinkId host_down{2 * dst + 1};

  if (src / n == dst / n) return {host_up, host_down};

  const std::uint64_t agg = up_choice % n;
  const auto edge_agg = [&](std::uint64_t edge) {
    return edge_agg_base + 2 * (edge * n + agg);
  };
  const LinkId edge_up{edge_agg(src / n)};
  const LinkId edge_down{edge_agg(dst / n) + 1};
  const std::uint64_t src_pod = src / (n * n);
  const std::uint64_t dst_pod = dst / (n * n);

  if (src_pod == dst_pod) return {host_up, edge_up, edge_down, host_down};

  const std::uint64_t member = core_choice % n;
  const auto agg_core = [&](std::uint64_t pod) {
    return agg_core_base + 2 * ((pod * n + agg) * n + member);
  };
  return {host_up, edge_up, LinkId{agg_core(src_pod)},
          LinkId{agg_core(dst_pod) + 1}, edge_down, host_down};
}

}  // namespace gurita
