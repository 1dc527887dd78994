#include "sched/varys.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace gurita {

namespace {

/// Port rate that turns bottleneck bytes into Γ seconds (the paper's 10G
/// ports). A positive constant divisor leaves the SEBF order alone up to
/// the rounding of the quotient, which decides exact ties by coflow id.
constexpr Rate kPortRate = gbps(10.0);

}  // namespace

Bytes VarysScheduler::bottleneck_bytes(
    const std::vector<const SimFlow*>& flows, Time now) {
  std::unordered_map<int, Bytes> out_port;  // per src host
  std::unordered_map<int, Bytes> in_port;   // per dst host
  for (const SimFlow* f : flows) {
    // Bytes drain lazily from each flow's last settle point, so the
    // clairvoyant residual must be extrapolated to the query time.
    const Bytes remaining = f->remaining_at(now);
    out_port[f->src_host] += remaining;
    in_port[f->dst_host] += remaining;
  }
  Bytes bottleneck = 0;
  for (const auto& [host, bytes] : out_port)
    bottleneck = std::max(bottleneck, bytes);
  for (const auto& [host, bytes] : in_port)
    bottleneck = std::max(bottleneck, bytes);
  return bottleneck;
}

void VarysScheduler::assign(Time now, const std::vector<SimFlow*>& active) {
  // Group active flows by coflow and compute each coflow's remaining Γ.
  std::map<std::uint64_t, std::vector<const SimFlow*>> by_coflow;
  for (const SimFlow* f : active) {
    const CoflowId cid = state().job(f->job).coflows[f->coflow_index];
    by_coflow[cid.value()].push_back(f);
  }

  // SEBF: ascending Γ; ties broken by coflow id for determinism.
  std::vector<std::pair<double, std::uint64_t>> order;
  order.reserve(by_coflow.size());
  for (const auto& [cid, flows] : by_coflow)
    order.emplace_back(bottleneck_bytes(flows, now) / kPortRate, cid);
  std::sort(order.begin(), order.end());

  Tier tier = 0;
  for (const auto& [gamma, cid] : order) {
    (void)gamma;
    set_priority(CoflowId{cid}, tier++, 1.0);
  }
}

}  // namespace gurita
