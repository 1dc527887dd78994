#include "flowsim/state.h"

#include <algorithm>
#include <bit>

#include "flowsim/allocator.h"

namespace gurita {

void PriorityWriter::set(CoflowId id, Tier tier, double weight) {
  SimCoflow& c = state->coflows_.at(id.value());
  if (c.tier == tier && std::bit_cast<std::uint64_t>(c.weight) ==
                            std::bit_cast<std::uint64_t>(weight))
    return;
  c.tier = tier;
  c.weight = weight;
  for (FlowId fid : c.flows) {
    SimFlow& f = state->flows_[fid.value()];
    if (f.finished()) continue;
    f.tier = tier;
    f.weight = weight;
    if (allocator != nullptr) allocator->touch_flow(&f);
  }
}

Bytes SimState::coflow_bytes_sent(CoflowId id) const {
  GURITA_CHECK_MSG(id.value() < aggregates_.size(), "coflow id out of range");
  const CoflowAggregate& a = aggregates_[id.value()];
  // Linear form of the incremental aggregate; exact at now_ because every
  // flow's rate is constant between boundaries (see CoflowAggregate).
  const Bytes sent = a.base_bytes + a.rate_sum * now_ - a.rate_time_sum;
  return sent > 0 ? sent : 0.0;
}

Bytes SimState::coflow_total_bytes(CoflowId id) const {
  const SimCoflow& c = coflow(id);
  const SimJob& j = job(c.job);
  return j.spec.coflows[c.index].total_bytes();
}

Bytes SimState::coflow_ell_max(CoflowId id) const {
  const SimCoflow& c = coflow(id);
  // Finished flows are covered by the settled running max; the upper
  // envelope over still-draining flows is not decomposable into a running
  // scalar, so those are extrapolated individually.
  Bytes ell_max = aggregates_[id.value()].ell_max_settled;
  for (FlowId fid : c.flows) {
    const SimFlow& f = flows_[fid.value()];
    if (!f.finished()) ell_max = std::max(ell_max, f.bytes_sent_at(now_));
  }
  return ell_max;
}

Bytes SimState::job_bytes_sent(JobId id) const {
  const SimJob& j = job(id);
  Bytes sent = 0;
  for (CoflowId cid : j.coflows) {
    if (coflow(cid).released()) sent += coflow_bytes_sent(cid);
  }
  return sent;
}

int SimState::coflow_open_connections(CoflowId id) const {
  GURITA_CHECK_MSG(id.value() < aggregates_.size(), "coflow id out of range");
  return aggregates_[id.value()].open_connections;
}

}  // namespace gurita
