#include "metrics/extended.h"

#include "coflow/critical_path.h"
#include "common/check.h"

namespace gurita {

void CctCollector::add(const SimResults& results) {
  for (const SimResults::CoflowResult& c : results.coflows) {
    GURITA_CHECK_MSG(c.stage >= 1, "coflow stages are 1-based");
    all_.add(c.cct());
  }
}

std::vector<double> job_slowdowns(const std::vector<JobSpec>& jobs,
                                  const SimResults& results, Rate line_rate) {
  GURITA_CHECK_MSG(jobs.size() == results.jobs.size(),
                   "spec and result job populations differ");
  std::vector<double> slowdowns;
  slowdowns.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double bound = jct_lower_bound(jobs[i], line_rate);
    GURITA_CHECK_MSG(bound > 0, "job with zero lower bound");
    slowdowns.push_back(results.jobs[i].jct() / bound);
  }
  return slowdowns;
}

double jain_fairness(const std::vector<double>& values) {
  GURITA_CHECK_MSG(!values.empty(), "fairness of empty vector");
  double sum = 0;
  double sum_sq = 0;
  for (double v : values) {
    GURITA_CHECK_MSG(v >= 0, "fairness needs non-negative values");
    sum += v;
    sum_sq += v * v;
  }
  GURITA_CHECK_MSG(sum > 0, "fairness needs a positive entry");
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace gurita
