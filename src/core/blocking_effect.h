// The coflow blocking effect Ψ (paper §IV.B, eq. 2/3).
//
//   Ψ_c = ω · ε · ℓ_max · n            (eq. 2)
//
// — the scheduler's estimate of how likely a coflow is to delay the
// completion of other jobs' coflows:
//
//   ω      final-stage weight (rule 3): shrinks as the job nears its last
//          stage so almost-done jobs are not held back.
//   ε      flow-size skew adjustment (rule 1): a coflow whose flows are all
//          near ℓ_max keeps machines busy longest; a skewed coflow (one
//          elephant among mice) blocks less than ℓ_max·n suggests.
//   ℓ_max  vertical dimension: size of the largest flow.
//   n      horizontal dimension: number of flows.
//
// The online variant (eq. 3) replaces every term with the receiver-observed
// approximation and subtracts a critical-path bonus β·α (rule 4). The
// paper's "− β·α" with β ≤ 1 is dimensionally negligible against ℓ_max·n
// (bytes), so we implement the bonus as the multiplicative discount
// Ψ' = Ψ·(1 − β·α), which realizes the stated intent — prioritize
// critical-path coflows whose blocking effect is marginally larger than the
// least — and reduces to the paper's expression under normalization.
// (Interpretation recorded in DESIGN.md §6.)
#pragma once

#include "common/ids.h"
#include "common/units.h"
#include "obs/trace.h"

namespace gurita {

/// ω for the clairvoyant scheduler: 1 − k/k_total, where k is the number of
/// completed stages and k_total the job's total stages. Reaches 0 at the
/// final stage boundary (rule 3: jobs at the end finish quickly). We clamp
/// to a small positive floor so Ψ stays ordered among final-stage coflows.
[[nodiscard]] double omega_clairvoyant(int completed_stages, int total_stages);

/// ω̈ for the online scheduler, where k_total is unknown a priori:
/// ω̈ = 1/(1+k). "The influence diminishes as k → ∞ to prevent false
/// positives of nearing the final stage caused by jobs with many stages."
[[nodiscard]] double omega_online(int completed_stages);

/// ε from flow-size skew: d = ℓ_avg/ℓ_max ∈ (0, 1];  ε = 1 − γ^d
/// (γ ∈ (0,1)). Uniform coflows (d → 1) approach 1 − γ (strong blocking);
/// highly skewed coflows (d → 0) approach 0. `paper_literal` switches the
/// d ≥ 1 branch to the paper's literal "0.1·γ" figure (ablation only; the
/// text is ambiguous there — see DESIGN.md).
[[nodiscard]] double epsilon_skew(Bytes ell_avg, Bytes ell_max, double gamma,
                                  bool paper_literal = false);

struct BlockingInputs {
  double omega = 1.0;     ///< final-stage weight (either variant)
  double epsilon = 1.0;   ///< flow-size skew adjustment
  Bytes ell_max = 0;      ///< (observed) largest flow size, bytes
  double width = 0;       ///< (observed) number of flows
  bool on_critical_path = false;  ///< α
  double beta = 0;        ///< critical-path discount in (0, 1]
};

/// Ψ_c. Non-negative; larger = more blocking = lower priority.
[[nodiscard]] double blocking_effect(const BlockingInputs& in);

/// The kQueueChange record of an LBEF decision (obs::queue_change_record):
/// `in`'s factors, the critical-path discount as blocking_effect applies
/// it (1 − β, or 1 off the critical path) and the thresholded `psi`.
[[nodiscard]] obs::TraceRecord queue_change_record(
    Time time, JobId job, CoflowId coflow, int from, int to,
    obs::QueueChangeCause cause, const BlockingInputs& in, double psi);

}  // namespace gurita
