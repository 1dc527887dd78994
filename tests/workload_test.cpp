// Tests for the synthetic trace generator and benchmark DAG structures:
// validity of every generated job, determinism, category coverage, arrival
// patterns and structure templates.
#include <gtest/gtest.h>

#include <set>

#include "coflow/critical_path.h"
#include "metrics/category.h"
#include "workload/open_loop.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

TraceConfig small_config() {
  TraceConfig config;
  config.num_jobs = 60;
  config.num_hosts = 128;
  config.seed = 11;
  return config;
}

TEST(Structures, TpcDsQuery42Shape) {
  const auto deps = tpcds_q42_deps();
  EXPECT_EQ(deps.size(), 7u);
  EXPECT_EQ(shapes::depth_of(deps), 5);  // production average depth
  // Three scans are leaves.
  int leaves = 0;
  for (const auto& d : deps)
    if (d.empty()) ++leaves;
  EXPECT_EQ(leaves, 3);
}

TEST(Structures, FbTaoShape) {
  const auto deps = fb_tao_deps();
  EXPECT_EQ(deps.size(), 7u);
  EXPECT_EQ(shapes::depth_of(deps), 3);  // wide and shallow
  int leaves = 0;
  for (const auto& d : deps)
    if (d.empty()) ++leaves;
  EXPECT_EQ(leaves, 4);
}

TEST(Structures, StringRoundTrip) {
  EXPECT_EQ(structure_from_string("tpcds"), StructureKind::kTpcDs);
  EXPECT_EQ(structure_from_string("fbtao"), StructureKind::kFbTao);
  EXPECT_EQ(structure_from_string("mixed"), StructureKind::kMixed);
  EXPECT_STREQ(to_string(StructureKind::kTpcDs), "tpcds");
  EXPECT_THROW(structure_from_string("nope"), std::logic_error);
}

TEST(Structures, MixedDrawsAreValidDags) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto deps = mixed_deps(rng);
    EXPECT_GE(deps.size(), 1u);
    EXPECT_NO_THROW(shapes::depth_of(deps));
  }
}

TEST(Structures, MixedFavorsTrees) {
  // The Microsoft study's headline number: ~40% of jobs are trees. A tree
  // here shows up as every internal node having exactly 2 deps and one
  // root; rather than classify, check the depth distribution is diverse.
  Rng rng(5);
  std::set<int> depths;
  for (int i = 0; i < 300; ++i) depths.insert(shapes::depth_of(mixed_deps(rng)));
  EXPECT_GE(depths.size(), 4u);  // singles, chains, trees, deep chains...
}

TEST(TraceGen, EveryJobValidates) {
  const auto jobs = generate_trace(small_config());
  ASSERT_EQ(jobs.size(), 60u);
  for (const auto& job : jobs)
    EXPECT_NO_THROW(validate(job, 128));
}

TEST(TraceGen, DeterministicForSeed) {
  const auto a = generate_trace(small_config());
  const auto b = generate_trace(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_time, b[i].arrival_time);
    EXPECT_DOUBLE_EQ(a[i].total_bytes(), b[i].total_bytes());
    EXPECT_EQ(a[i].coflows.size(), b[i].coflows.size());
  }
}

TEST(TraceGen, DifferentSeedsDiffer) {
  TraceConfig other = small_config();
  other.seed = 12;
  const auto a = generate_trace(small_config());
  const auto b = generate_trace(other);
  int identical = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].total_bytes() == b[i].total_bytes()) ++identical;
  EXPECT_LT(identical, 5);
}

TEST(TraceGen, ArrivalsSortedAndPoissonSpaced) {
  const auto jobs = generate_trace(small_config());
  double prev = 0;
  for (const auto& job : jobs) {
    EXPECT_GE(job.arrival_time, prev);
    prev = job.arrival_time;
  }
  // Mean inter-arrival should be in the ballpark of the configured mean.
  const double mean = jobs.back().arrival_time / static_cast<double>(jobs.size());
  EXPECT_GT(mean, small_config().mean_interarrival * 0.5);
  EXPECT_LT(mean, small_config().mean_interarrival * 2.0);
}

TEST(TraceGen, BurstyArrivalsComeInBatches) {
  TraceConfig config = small_config();
  config.arrivals = ArrivalPattern::kBursty;
  config.burst_size = 10;
  config.burst_spacing = 2e-6;
  config.burst_gap = 1.0;
  config.num_jobs = 30;
  const auto jobs = generate_trace(config);
  // Jobs 0..9 within ~20µs, then a >= 1 s gap before job 10.
  EXPECT_LT(jobs[9].arrival_time - jobs[0].arrival_time, 1e-4);
  EXPECT_GE(jobs[10].arrival_time - jobs[9].arrival_time, 0.9);
}

// The open loop's bursty arrivals take their burst size and spacing from
// the shape (defaults: 50 jobs 2 µs apart, the paper's pattern) and size
// the idle gap so every burst cycle spans burst_size mean inter-arrivals.
TEST(OpenLoop, BurstyArrivalsBackToBackAndKeepMeanRate) {
  const auto arrivals = [](const OpenLoopGenerator::Config& config, int n) {
    OpenLoopGenerator gen(config);
    std::vector<Time> out;
    for (int i = 0; i < n; ++i) out.push_back(gen.next().arrival_time);
    return out;
  };
  OpenLoopGenerator::Config config;
  config.shape = small_config();
  config.arrivals = ArrivalPattern::kBursty;
  config.mean_interarrival = 0.01;
  ASSERT_EQ(config.shape.burst_size, 50);
  ASSERT_DOUBLE_EQ(config.shape.burst_spacing, 2 * kMicrosecond);
  const std::vector<Time> t = arrivals(config, 101);
  for (int i = 0; i < 100; ++i) {
    if (i % 50 == 49) continue;
    EXPECT_NEAR(t[i + 1] - t[i], 2e-6, 1e-12) << "job " << i;
  }
  EXPECT_NEAR(t[50] - t[0], 50 * 0.01, 1e-12);   // one cycle
  EXPECT_NEAR(t[100] - t[50], 50 * 0.01, 1e-12);

  config.shape.burst_size = 4;
  config.shape.burst_spacing = 1e-3;
  const std::vector<Time> small = arrivals(config, 9);
  EXPECT_NEAR(small[3] - small[0], 3e-3, 1e-12);
  EXPECT_NEAR(small[4] - small[3], 4 * 0.01 - 3e-3, 1e-12);
  EXPECT_NEAR(small[8] - small[4], 4 * 0.01, 1e-12);
}

TEST(TraceGen, CategoryMixCoversAllSeven) {
  TraceConfig config = small_config();
  config.num_jobs = 600;
  const auto jobs = generate_trace(config);
  std::set<int> seen;
  for (const auto& job : jobs) seen.insert(category_of(job.total_bytes()));
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumCategories));
}

TEST(TraceGen, CategoryWeightsRespected) {
  TraceConfig config = small_config();
  config.num_jobs = 400;
  config.category_weights = {1, 0, 0, 0, 0, 0, 0};  // everything category I
  const auto jobs = generate_trace(config);
  for (const auto& job : jobs)
    EXPECT_EQ(category_of(job.total_bytes()), 0);
}

TEST(TraceGen, StructureKindHonored) {
  TraceConfig config = small_config();
  config.structure = StructureKind::kTpcDs;
  config.num_jobs = 10;
  const auto jobs = generate_trace(config);
  for (const auto& job : jobs) {
    EXPECT_EQ(job.coflows.size(), 7u);
    EXPECT_EQ(stage_count(job), 5);
  }
}

TEST(TraceGen, WidthsWithinCap) {
  TraceConfig config = small_config();
  config.max_width = 16;
  config.num_jobs = 100;
  const auto jobs = generate_trace(config);
  for (const auto& job : jobs)
    for (const auto& c : job.coflows) {
      EXPECT_GE(c.width(), 1u);
      EXPECT_LE(c.width(), 16u);
    }
}

TEST(TraceGen, OnAndOffJobsExist) {
  // Per-stage byte skew: some multi-coflow jobs should have a >= 4x spread
  // between their largest and smallest coflow (the "on-and-off" profile).
  TraceConfig config = small_config();
  config.num_jobs = 200;
  const auto jobs = generate_trace(config);
  int skewed = 0;
  for (const auto& job : jobs) {
    if (job.coflows.size() < 2) continue;
    Bytes lo = job.coflows[0].total_bytes(), hi = lo;
    for (const auto& c : job.coflows) {
      lo = std::min(lo, c.total_bytes());
      hi = std::max(hi, c.total_bytes());
    }
    if (hi > 4 * lo) ++skewed;
  }
  EXPECT_GT(skewed, 20);
}

TEST(TraceGen, RejectsBadConfig) {
  TraceConfig config = small_config();
  config.num_jobs = 0;
  EXPECT_THROW(generate_trace(config), std::logic_error);
  config = small_config();
  config.num_hosts = 1;
  EXPECT_THROW(generate_trace(config), std::logic_error);
  config = small_config();
  config.category_weights = {1.0};
  EXPECT_THROW(generate_trace(config), std::logic_error);
}

TEST(TraceGen, ArrivalPatternNames) {
  EXPECT_STREQ(to_string(ArrivalPattern::kPoisson), "poisson");
  EXPECT_STREQ(to_string(ArrivalPattern::kBursty), "bursty");
}

class TraceGenSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceGenSeeds, AlwaysValidAcrossSeeds) {
  TraceConfig config = small_config();
  config.seed = GetParam();
  config.num_jobs = 40;
  config.structure = GetParam() % 2 == 0 ? StructureKind::kMixed
                                         : StructureKind::kFbTao;
  const auto jobs = generate_trace(config);
  for (const auto& job : jobs) {
    EXPECT_NO_THROW(validate(job, config.num_hosts));
    EXPECT_GT(jct_lower_bound(job, gbps(10.0)), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, TraceGenSeeds,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace gurita
