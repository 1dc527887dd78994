// Unit tests for src/common: typed ids, RNG determinism and distribution
// sanity, online statistics, histograms and the check macro.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace gurita {
namespace {

// ---------------------------------------------------------------- TypedId

TEST(TypedId, DefaultConstructedIsInvalid) {
  FlowId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, FlowId::invalid());
}

TEST(TypedId, ValueRoundTrip) {
  FlowId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(TypedId, Ordering) {
  EXPECT_LT(JobId{1}, JobId{2});
  EXPECT_GT(JobId{3}, JobId{2});
  EXPECT_LE(JobId{2}, JobId{2});
  EXPECT_GE(JobId{2}, JobId{2});
  EXPECT_NE(JobId{1}, JobId{2});
}

TEST(TypedId, Hashable) {
  std::unordered_set<CoflowId> set;
  set.insert(CoflowId{1});
  set.insert(CoflowId{1});
  set.insert(CoflowId{2});
  EXPECT_EQ(set.size(), 2u);
}

// ------------------------------------------------------------------ Units

TEST(Units, Constants) {
  EXPECT_DOUBLE_EQ(kMB, 1e6);
  EXPECT_DOUBLE_EQ(kGB, 1e9);
  EXPECT_DOUBLE_EQ(kTB, 1e12);
  // 10 Gbit/s = 1.25 GB/s.
  EXPECT_DOUBLE_EQ(gbps(10.0), 1.25e9);
}

// ------------------------------------------------------------------ Check

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(GURITA_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsLogicError) {
  EXPECT_THROW(GURITA_CHECK(false), std::logic_error);
}

TEST(Check, MessageIsIncluded) {
  try {
    GURITA_CHECK_MSG(false, "the reason");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("the reason"), std::string::npos);
  }
}

// -------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(13);
  EXPECT_EQ(rng.uniform_int(4, 4), 4u);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ExponentialRejectsBadMean) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::logic_error);
  EXPECT_THROW(rng.exponential(-1.0), std::logic_error);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  RunningStats s;
  double sum_sq = 0;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    s.add(x);
    sum_sq += x * x;
  }
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  const double variance =
      sum_sq / static_cast<double>(s.count()) - s.mean() * s.mean();
  EXPECT_NEAR(std::sqrt(variance), 3.0, 0.1);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 2.0), 0.0);
}

TEST(Rng, BoundedParetoWithinBounds) {
  Rng rng(29);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.bounded_pareto(1.0, 100.0, 1.3);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 100.0 + 1e-9);
  }
}

TEST(Rng, BoundedParetoIsHeavyTailed) {
  // Most mass near the lower bound for alpha > 1.
  Rng rng(31);
  int below_10 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.bounded_pareto(1.0, 1000.0, 1.5) < 10.0) ++below_10;
  EXPECT_GT(below_10, n * 8 / 10);
}

TEST(Rng, WeightedChoiceRespectsWeights) {
  Rng rng(37);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i)
    ++counts[rng.weighted_choice({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / double(n), 0.7, 0.02);
}

TEST(Rng, WeightedChoiceZeroWeightNeverPicked) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i)
    EXPECT_NE(rng.weighted_choice({1.0, 0.0, 1.0}), 1u);
}

TEST(Rng, WeightedChoiceRejectsDegenerate) {
  Rng rng(43);
  EXPECT_THROW(rng.weighted_choice({}), std::logic_error);
  EXPECT_THROW(rng.weighted_choice({0.0, 0.0}), std::logic_error);
  EXPECT_THROW(rng.weighted_choice({-1.0, 2.0}), std::logic_error);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(123);
  Rng child = a.split();
  Rng b(123);
  (void)b.split();
  // The child stream differs from the parent's continuation.
  EXPECT_NE(child.next_u64(), a.next_u64());
}

// ------------------------------------------------------------ RunningStats

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

// ---------------------------------------------------------------- Samples

TEST(Samples, MeanAndPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(Samples, PercentileOfEmptyThrows) {
  Samples s;
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Samples, PercentileOutOfRangeThrows) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), std::logic_error);
  EXPECT_THROW(s.percentile(101), std::logic_error);
}

TEST(Samples, AddAfterPercentileStillCorrect) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogram, CountsBucketed) {
  LogHistogram h(10.0);
  h.add(5.0);     // [1, 10)
  h.add(7.0);     // [1, 10)
  h.add(50.0);    // [10, 100)
  h.add(0.5);     // [0.1, 1)
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count_in_bucket_of(2.0), 2u);
  EXPECT_EQ(h.count_in_bucket_of(99.0), 1u);
  EXPECT_EQ(h.count_in_bucket_of(0.2), 1u);
  EXPECT_EQ(h.count_in_bucket_of(1e6), 0u);
}

TEST(LogHistogram, ZeroLandsInZeroBucketNegativeThrows) {
  LogHistogram h;
  h.add(0.0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.zeros(), 1u);
  EXPECT_TRUE(h.buckets().empty());
  EXPECT_THROW(h.add(-1.0), std::logic_error);
}

TEST(LogHistogram, RejectsBadBase) {
  EXPECT_THROW(LogHistogram(1.0), std::logic_error);
  EXPECT_THROW(LogHistogram(0.5), std::logic_error);
}

TEST(LogHistogram, PercentileReturnsBucketUpperEdge) {
  LogHistogram h(10.0);
  for (int i = 0; i < 90; ++i) h.add(5.0);    // [1, 10) -> edge 10
  for (int i = 0; i < 9; ++i) h.add(50.0);    // [10, 100) -> edge 100
  h.add(5000.0);                              // [1000, 10000) -> edge 10000
  EXPECT_DOUBLE_EQ(h.percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 10000.0);
}

TEST(LogHistogram, PercentileCountsZerosFirst) {
  LogHistogram h(10.0);
  for (int i = 0; i < 60; ++i) h.add(0.0);
  for (int i = 0; i < 40; ++i) h.add(5.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 10.0);
  EXPECT_THROW(LogHistogram().percentile(50), std::logic_error);
}

TEST(LogHistogram, MergeIsCommutativeAndSums) {
  LogHistogram a(10.0), b(10.0);
  a.add(5.0);
  a.add(0.0);
  b.add(5.0);
  b.add(500.0);
  LogHistogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.total(), 4u);
  EXPECT_EQ(ab.zeros(), 1u);
  EXPECT_EQ(ab.count_in_bucket_of(5.0), 2u);
  EXPECT_EQ(ab.count_in_bucket_of(500.0), 1u);
  EXPECT_EQ(ab.to_string(), ba.to_string());
  EXPECT_DOUBLE_EQ(ab.percentile(99), ba.percentile(99));

  LogHistogram other_base(2.0);
  EXPECT_THROW(ab.merge(other_base), std::logic_error);
}

TEST(PercentileRankIndex, NearestRankKernel) {
  // The shared kernel behind Samples, LogHistogram and the metrics
  // collectors: rank = ceil(p/100 * n), clamped to [0, n-1].
  EXPECT_EQ(percentile_rank_index(0, 100), 0u);
  EXPECT_EQ(percentile_rank_index(50, 100), 49u);
  EXPECT_EQ(percentile_rank_index(95, 100), 94u);
  EXPECT_EQ(percentile_rank_index(99, 100), 98u);
  EXPECT_EQ(percentile_rank_index(100, 100), 99u);
  EXPECT_EQ(percentile_rank_index(50, 1), 0u);
  EXPECT_THROW(percentile_rank_index(50, 0), std::logic_error);
  EXPECT_THROW(percentile_rank_index(-1, 10), std::logic_error);
  EXPECT_THROW(percentile_rank_index(101, 10), std::logic_error);
}

TEST(LogHistogram, ToStringListsBuckets) {
  LogHistogram h(10.0);
  h.add(5.0);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("1"), std::string::npos);
}

}  // namespace
}  // namespace gurita
