// The multi-seed comparison several tests were recorded against: the same
// scheduler comparison over `num_seeds` workloads (seed, seed+1, ...),
// pooled in seed order. Test-only — new sweeps use run_sweep (exp/runner.h),
// whose replicate seeds derive from the full (experiment, config,
// replicate) key; this schedule stays so the recorded expectations hold.
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "exp/experiment.h"
#include "exp/runner.h"

namespace gurita {

/// Runs compare_schedulers on each of the `num_seeds` workloads sharded
/// over `jobs` workers (run_matrix) and pools them in seed order, so the
/// result is bit-identical at any `jobs`.
inline ComparisonResult compare_schedulers_seeds(
    ExperimentConfig config, const std::vector<std::string>& names,
    int num_seeds, int jobs = 1) {
  GURITA_CHECK_MSG(num_seeds >= 1, "need at least one seed");
  std::vector<ExperimentRun> runs(static_cast<std::size_t>(num_seeds));
  for (ExperimentRun& run : runs) {
    run.config = config;
    run.schedulers = names;
    ++config.trace.seed;
  }
  ComparisonResult pooled;
  for (const ComparisonResult& r : run_matrix(runs, jobs)) pooled.absorb(r);
  return pooled;
}

}  // namespace gurita
