// Extended evaluation metrics beyond average JCT:
//
//  * CCT statistics — the paper's "primary metrics for comparison is the
//    average CCTs" alongside JCT.
//  * Slowdown — JCT divided by the job's critical-path lower bound at line
//    rate; 1.0 means the scheduler achieved the physical optimum for that
//    job. Distribution percentiles expose tail behaviour that averages
//    hide.
//  * Jain's fairness index over per-job slowdowns — how evenly a scheduler
//    spreads its pain (1 = perfectly even).
#pragma once

#include <vector>

#include "common/stats.h"
#include "coflow/job.h"
#include "flowsim/simulator.h"

namespace gurita {

/// CCT statistics over the coflows of one or more runs.
class CctCollector {
 public:
  /// Adds every coflow's CCT; throws std::logic_error on a stage below 1.
  void add(const SimResults& results);

  [[nodiscard]] double average_cct() const { return all_.mean(); }
  [[nodiscard]] std::size_t coflows() const { return all_.count(); }

 private:
  Samples all_;
};

/// Per-job slowdowns: JCT / critical-path bound at `line_rate`.
/// `jobs` must be the submitted specs in job-id order (as produced by the
/// workload generator and preserved by the harness).
[[nodiscard]] std::vector<double> job_slowdowns(
    const std::vector<JobSpec>& jobs, const SimResults& results,
    Rate line_rate);

/// Jain's fairness index of a non-negative vector:
/// (Σx)^2 / (n·Σx²) ∈ (0, 1]. Requires at least one positive entry.
[[nodiscard]] double jain_fairness(const std::vector<double>& values);

}  // namespace gurita
