// Varys — efficient coflow scheduling with complete prior knowledge
// (Chowdhury, Zhong, Stoica — SIGCOMM'14). Not part of the paper's §V
// comparison (it requires clairvoyance, which the paper's setting denies),
// but the canonical upper baseline from the related-work discussion and a
// useful reference point for experiments.
//
// Smallest Effective Bottleneck First (SEBF): a coflow's priority is its
// remaining *effective bottleneck* Γ — the time the coflow still needs if
// given the fabric alone, bounded by its most-loaded ingress or egress
// port. Coflows are served in ascending-Γ order (strict tiers). MADD's
// intra-coflow rate shaping (slow every flow to finish with the slowest)
// does not change CCTs under work-conserving max-min on a shared tier, so
// flows within a coflow simply share fairly.
//
// Multi-stage jobs are handled the way Varys would see them: each coflow
// becomes schedulable when its dependencies complete, and Γ is recomputed
// from remaining bytes as flows progress.
#pragma once

#include "common/units.h"
#include "flowsim/scheduler.h"

namespace gurita {

/// SEBF is stateless: Γ is re-derived from engine state at every assign(),
/// so the default fault, job-failure and checkpoint hooks (which do
/// nothing) are its intended semantics.
class VarysScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "varys"; }

  void assign(Time now, const std::vector<SimFlow*>& active) override;

  /// Γ's numerator for a set of remaining per-flow demands grouped by
  /// src/dst host: max over ports of remaining bytes in/out at time `now`
  /// (residuals are extrapolated from each flow's lazy-drain settle point).
  /// Exposed for tests.
  [[nodiscard]] static Bytes bottleneck_bytes(
      const std::vector<const SimFlow*>& flows, Time now);
};

}  // namespace gurita
