// Lightweight online statistics and histograms for experiment reporting.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace gurita {

/// The single nearest-rank percentile kernel every percentile query in the
/// repo routes through (Samples, LogHistogram, metrics collectors): for a
/// sorted collection of `n > 0` elements, the percentile `p` in [0, 100] is
/// the element at this index (rank = ceil(p/100 * n), clamped to [0, n-1]).
[[nodiscard]] std::size_t percentile_rank_index(double p, std::size_t n);

/// Online accumulator: Welford mean / min / max / sum / count.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sample collector with exact percentile queries (keeps all samples).
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] double mean() const;
  /// Nearest-rank percentile; `p` in [0, 100]. Requires non-empty.
  [[nodiscard]] double percentile(double p) const;
  /// Empty-safe percentile: `fallback` when no samples were recorded.
  [[nodiscard]] double percentile_or(double p, double fallback) const {
    return xs_.empty() ? fallback : percentile(p);
  }
  [[nodiscard]] const std::vector<double>& values() const { return xs_; }

  /// Appends `other`'s samples in their insertion order, so merging shard
  /// collectors in shard order reproduces the serial insertion sequence
  /// exactly (the parallel runner's determinism contract).
  void merge(const Samples& other);

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Log-spaced histogram over [0, +inf); useful for heavy-tailed sizes.
/// Zero values (e.g. a coflow released the instant its job arrived, so its
/// queue wait is exactly 0) land in a dedicated zero bucket rather than
/// crashing the log. Negative values are rejected.
class LogHistogram {
 public:
  /// Buckets are [base^i, base^(i+1)); `base` > 1.
  explicit LogHistogram(double base = 10.0);

  void add(double x);
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t zeros() const { return zeros_; }
  [[nodiscard]] double base() const { return base_; }
  /// Sorted (bucket index -> count) pairs; indices can be negative for
  /// x < 1. Excludes the zero bucket (see zeros()).
  [[nodiscard]] const std::vector<std::pair<int, std::size_t>>& buckets()
      const {
    return buckets_;
  }
  /// Human-readable dump, one bucket per line.
  [[nodiscard]] std::string to_string() const;
  /// Count in bucket containing x.
  [[nodiscard]] std::size_t count_in_bucket_of(double x) const;

  /// Nearest-rank percentile over the bucketed distribution; `p` in
  /// [0, 100]. Returns the *upper edge* base^(i+1) of the bucket holding
  /// the nearest-rank sample (an upper bound on the true percentile, so
  /// tail reports never understate), or 0 when that sample is a recorded
  /// zero. Requires total() > 0.
  [[nodiscard]] double percentile(double p) const;

  /// Commutative, order-independent merge (bucket-count sums). Requires
  /// identical base: merging differently-spaced histograms is a bug.
  void merge(const LogHistogram& other);

 private:
  double base_;
  std::size_t total_ = 0;
  std::size_t zeros_ = 0;
  // bucket index -> count; indices can be negative for x < 1.
  std::vector<std::pair<int, std::size_t>> buckets_;
  [[nodiscard]] int bucket_index(double x) const;
  std::size_t* find_or_insert(int idx);
};

}  // namespace gurita
