#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace gurita {

std::size_t percentile_rank_index(double p, std::size_t n) {
  GURITA_CHECK_MSG(n > 0, "percentile of empty collection");
  GURITA_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile out of range");
  if (p <= 0.0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::min(rank == 0 ? 0 : rank - 1, n - 1);
}

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Samples::merge(const Samples& other) {
  xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
  sorted_ = false;
}

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  GURITA_CHECK_MSG(!xs_.empty(), "percentile of empty sample set");
  ensure_sorted();
  return xs_[percentile_rank_index(p, xs_.size())];
}

LogHistogram::LogHistogram(double base) : base_(base) {
  GURITA_CHECK_MSG(base > 1.0, "histogram base must exceed 1");
}

int LogHistogram::bucket_index(double x) const {
  GURITA_CHECK_MSG(x > 0.0, "log histogram needs positive values");
  return static_cast<int>(std::floor(std::log(x) / std::log(base_)));
}

double LogHistogram::percentile(double p) const {
  const std::size_t idx = percentile_rank_index(p, total_);
  if (idx < zeros_) return 0.0;
  std::size_t seen = zeros_;
  for (const auto& [i, c] : buckets_) {
    seen += c;
    if (idx < seen) return std::pow(base_, i + 1);
  }
  GURITA_CHECK_MSG(false, "log histogram bucket counts disagree with total");
  return 0.0;
}

void LogHistogram::merge(const LogHistogram& other) {
  GURITA_CHECK_MSG(base_ == other.base_,
                   "merging log histograms with different bases");
  total_ += other.total_;
  zeros_ += other.zeros_;
  for (const auto& [i, c] : other.buckets_) *find_or_insert(i) += c;
}

std::size_t* LogHistogram::find_or_insert(int idx) {
  for (auto& [i, c] : buckets_) {
    if (i == idx) return &c;
  }
  buckets_.emplace_back(idx, 0);
  std::sort(buckets_.begin(), buckets_.end());
  return find_or_insert(idx);
}

void LogHistogram::add(double x) {
  GURITA_CHECK_MSG(x >= 0.0, "log histogram needs non-negative values");
  if (x == 0.0) {
    ++zeros_;
  } else {
    ++*find_or_insert(bucket_index(x));
  }
  ++total_;
}

std::size_t LogHistogram::count_in_bucket_of(double x) const {
  const int idx = bucket_index(x);
  for (const auto& [i, c] : buckets_) {
    if (i == idx) return c;
  }
  return 0;
}

std::string LogHistogram::to_string() const {
  std::ostringstream os;
  for (const auto& [i, c] : buckets_) {
    os << "[" << std::pow(base_, i) << ", " << std::pow(base_, i + 1)
       << "): " << c << "\n";
  }
  return os.str();
}

}  // namespace gurita
