#include "core/blocking_effect.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace gurita {

namespace {
// Keeps ω strictly positive so Ψ remains ordered within the final stage.
constexpr double kOmegaFloor = 1e-3;
}  // namespace

double omega_clairvoyant(int completed_stages, int total_stages) {
  GURITA_CHECK_MSG(total_stages >= 1, "job must have at least one stage");
  GURITA_CHECK_MSG(completed_stages >= 0 && completed_stages <= total_stages,
                   "completed stages out of range");
  const double w = 1.0 - static_cast<double>(completed_stages) /
                             static_cast<double>(total_stages);
  return std::max(w, kOmegaFloor);
}

double omega_online(int completed_stages) {
  GURITA_CHECK_MSG(completed_stages >= 0, "negative completed stages");
  return 1.0 / (1.0 + static_cast<double>(completed_stages));
}

double epsilon_skew(Bytes ell_avg, Bytes ell_max, double gamma,
                    bool paper_literal) {
  GURITA_CHECK_MSG(gamma > 0.0 && gamma < 1.0, "gamma must be in (0,1)");
  GURITA_CHECK_MSG(ell_avg >= 0 && ell_max >= 0, "negative flow sizes");
  if (ell_max <= 0) return 1.0 - gamma;  // nothing observed yet: neutral
  const double d = std::min(1.0, ell_avg / ell_max);
  if (paper_literal && d >= 1.0) return 0.1 * gamma;
  return 1.0 - std::pow(gamma, d);
}

double blocking_effect(const BlockingInputs& in) {
  GURITA_CHECK_MSG(in.omega >= 0 && in.epsilon >= 0, "negative Ψ factors");
  GURITA_CHECK_MSG(in.ell_max >= 0 && in.width >= 0, "negative Ψ dimensions");
  GURITA_CHECK_MSG(in.beta >= 0 && in.beta <= 1, "beta out of (0,1]");
  double psi = in.omega * in.epsilon * in.ell_max * in.width;
  if (in.on_critical_path) psi *= (1.0 - in.beta);
  return psi;
}

obs::TraceRecord queue_change_record(Time time, JobId job, CoflowId coflow,
                                     int from, int to,
                                     obs::QueueChangeCause cause,
                                     const BlockingInputs& in, double psi) {
  return obs::queue_change_record(
      time, job, coflow, from, to, cause,
      {.omega = in.omega,
       .epsilon = in.epsilon,
       .ell_max = in.ell_max,
       .width = in.width,
       .cp_discount = in.on_critical_path ? 1.0 - in.beta : 1.0,
       .psi = psi});
}

}  // namespace gurita
