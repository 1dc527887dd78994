// Gap-to-bound report: how far each scheduler's achieved average JCT sits
// above the sound lower bound (bound.h) on the same workload — overall, per
// Table-1 job-size category (metrics/category.h, identical bins to the
// figure benches), and per narrow/wide job class (PAPER.md Figs. 5–7:
// FB-Tao-like jobs are wide and shallow, TPC-DS-like jobs narrow and deep).
//
// Per scheduler, the report restricts both sides to the jobs that scheduler
// actually completed (failed jobs are excluded from JCT statistics and must
// therefore be excluded from the bound too — subset restriction keeps the
// bound sound). gap = achieved / bound >= 1 up to float rounding; sound()
// is the CI guard's predicate.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "bound/bound.h"
#include "flowsim/simulator.h"
#include "metrics/category.h"

namespace gurita {

/// One (job subset, scheduler) cell of the report.
struct GapCell {
  std::size_t jobs = 0;
  double achieved = 0;  ///< achieved average JCT (seconds)
  double bound = 0;     ///< lower bound on the average JCT (seconds)

  /// Achieved-to-bound ratio (>= 1 for a sound bound); 0 when undefined.
  [[nodiscard]] double gap() const {
    return bound > 0 ? achieved / bound : 0.0;
  }
};

struct SchedulerGap {
  std::string scheduler;
  GapCell overall;
  std::array<GapCell, kNumCategories> by_category;
  GapCell narrow;  ///< deep jobs (> kWideMaxStages stages), TPC-DS-like
  GapCell wide;    ///< shallow jobs (<= kWideMaxStages stages), FB-Tao-like
};

/// Stage-depth threshold of the narrow/wide split: FB-Tao DAGs are three
/// stages deep (wide class), TPC-DS DAGs deeper (narrow class).
inline constexpr int kWideMaxStages = 3;

struct GapReport {
  std::string scenario;
  int num_hosts = 0;
  Rate capacity = 0;
  /// Run-level bound components over all jobs (before per-scheduler
  /// failed-job masking): the port-load and ordering halves of the bound.
  double port_load_bound = 0;
  double ordering_bound = 0;
  std::vector<SchedulerGap> schedulers;

  /// True iff every non-empty cell satisfies bound <= achieved within the
  /// relative tolerance (float headroom for provably tight instances).
  [[nodiscard]] bool sound(double tolerance = 1e-9) const;

  /// The scheduler with the lowest overall achieved average JCT: with the
  /// bound below it, the tightest bracket on the optimum the report holds.
  /// nullptr when no scheduler completed a job.
  [[nodiscard]] const SchedulerGap* best() const;

  /// Deterministic JSON object (keys fixed, doubles at %.17g round-trip
  /// precision, only non-empty categories emitted).
  [[nodiscard]] std::string to_json() const;

  /// Per-scheduler fixed-width tables (metrics/report.h style).
  [[nodiscard]] std::string to_table() const;
};

/// Builds the report for one completed comparison: `achieved` pairs each
/// scheduler name with its SimResults over the SAME workload `jobs`
/// (results.jobs[i] must correspond to jobs[i] — the run_one contract).
[[nodiscard]] GapReport make_gap_report(
    std::string scenario, const std::vector<JobSpec>& jobs, int num_hosts,
    Rate capacity,
    const std::vector<std::pair<std::string, const SimResults*>>& achieved);

}  // namespace gurita
