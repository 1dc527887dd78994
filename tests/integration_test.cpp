// Cross-module integration tests: the full pipeline (workload -> fabric ->
// scheduler -> simulator -> metrics) for every scheduler, with invariants
// that must hold regardless of policy.
#include <gtest/gtest.h>

#include <algorithm>

#include "coflow/critical_path.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "seeded_comparison.h"

namespace gurita {
namespace {

ExperimentConfig tiny_experiment(StructureKind structure,
                                 ArrivalPattern arrivals) {
  ExperimentConfig config;
  config.fat_tree_k = 4;
  config.trace.num_jobs = 20;
  config.trace.structure = structure;
  config.trace.arrivals = arrivals;
  config.trace.mean_interarrival = 0.05;
  config.trace.max_width = 8;
  config.trace.seed = 21;
  // Keep the tiny fabric solvable: no category-VII monsters.
  config.trace.category_weights = {0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0};
  return config;
}

TEST(Registry, KnowsAllSchedulers) {
  EXPECT_EQ(scheduler_names().size(), 8u);
  for (const std::string& name : scheduler_names()) {
    const auto sched = make_scheduler(name);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), name);
  }
}

TEST(Registry, RejectsUnknownName) {
  EXPECT_THROW(make_scheduler("orchestra"), std::logic_error);
}

// Every scheduler completes the identical workload; all results carry the
// same job population.
class AllSchedulers : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSchedulers, CompletesTraceWorkload) {
  const ExperimentConfig config =
      tiny_experiment(StructureKind::kMixed, ArrivalPattern::kPoisson);
  const FatTree fabric(FatTree::Config{config.fat_tree_k, config.link_capacity});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const auto jobs = generate_trace(trace);

  const auto sched = make_scheduler(GetParam());
  const SimResults r = run_one(config, jobs, *sched);
  ASSERT_EQ(r.jobs.size(), jobs.size());
  for (const auto& j : r.jobs) {
    EXPECT_GE(j.finish, j.arrival);
    EXPECT_GT(j.jct(), 0.0);
  }
}

TEST_P(AllSchedulers, RespectsCriticalPathLowerBound) {
  const ExperimentConfig config =
      tiny_experiment(StructureKind::kTpcDs, ArrivalPattern::kPoisson);
  const FatTree fabric(FatTree::Config{config.fat_tree_k, config.link_capacity});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const auto jobs = generate_trace(trace);

  const auto sched = make_scheduler(GetParam());
  const SimResults r = run_one(config, jobs, *sched);
  // Results arrive ordered by job id == submission order.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double bound = jct_lower_bound(jobs[i], config.link_capacity);
    EXPECT_GE(r.jobs[i].jct(), bound - 1e-6)
        << GetParam() << " beat the critical-path bound on job " << i;
  }
}

TEST_P(AllSchedulers, CompletesBurstyWorkload) {
  const ExperimentConfig config =
      tiny_experiment(StructureKind::kFbTao, ArrivalPattern::kBursty);
  const FatTree fabric(FatTree::Config{config.fat_tree_k, config.link_capacity});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const auto jobs = generate_trace(trace);

  const auto sched = make_scheduler(GetParam());
  const SimResults r = run_one(config, jobs, *sched);
  EXPECT_EQ(r.jobs.size(), jobs.size());
}

INSTANTIATE_TEST_SUITE_P(Schedulers, AllSchedulers,
                         ::testing::ValuesIn(scheduler_names()));

TEST(CompareSchedulers, SharesIdenticalWorkload) {
  const ExperimentConfig config =
      tiny_experiment(StructureKind::kTpcDs, ArrivalPattern::kPoisson);
  const ComparisonResult result =
      compare_schedulers(config, {"pfs", "gurita"});
  ASSERT_EQ(result.collectors.size(), 2u);
  EXPECT_EQ(result.collectors.at("pfs").total_jobs(),
            result.collectors.at("gurita").total_jobs());
  EXPECT_GT(result.improvement("gurita", "pfs"), 0.0);
}

TEST(CompareSchedulers, ImprovementIsReciprocal) {
  const ExperimentConfig config =
      tiny_experiment(StructureKind::kFbTao, ArrivalPattern::kPoisson);
  const ComparisonResult result =
      compare_schedulers(config, {"pfs", "gurita"});
  const double a = result.improvement("gurita", "pfs");
  const double b = result.improvement("pfs", "gurita");
  EXPECT_NEAR(a * b, 1.0, 1e-9);
}

TEST(CompareSchedulers, UnknownNameThrows) {
  const ExperimentConfig config =
      tiny_experiment(StructureKind::kMixed, ArrivalPattern::kPoisson);
  const ComparisonResult result = compare_schedulers(config, {"pfs"});
  EXPECT_THROW(result.improvement("gurita", "pfs"), std::logic_error);
}

TEST(Scenarios, TraceScenarioDefaults) {
  const ExperimentConfig config =
      trace_scenario(StructureKind::kTpcDs, 100, 5);
  EXPECT_EQ(config.fat_tree_k, 8);
  EXPECT_EQ(config.trace.num_hosts, 128);
  EXPECT_EQ(config.trace.num_jobs, 100);
  EXPECT_EQ(config.trace.arrivals, ArrivalPattern::kPoisson);
  EXPECT_EQ(config.trace.structure, StructureKind::kTpcDs);
}

TEST(Scenarios, BurstyScenarioUsesPaperSpacing) {
  const ExperimentConfig config =
      bursty_scenario(StructureKind::kFbTao, 100, 5);
  EXPECT_EQ(config.trace.arrivals, ArrivalPattern::kBursty);
  EXPECT_DOUBLE_EQ(config.trace.burst_spacing, 2e-6);  // 2 µs (§V)
  EXPECT_EQ(config.trace.num_hosts, 128);
}

// The paper's 48-pod fabric has 27,648 hosts; a trace generated straight
// from the scenario's config must reach past the 8-pod fabric's 128.
TEST(Scenarios, BurstyScenarioSizesTraceToFabric) {
  const ExperimentConfig config =
      bursty_scenario(StructureKind::kFbTao, 40, 5, 48);
  EXPECT_EQ(config.trace.num_hosts, 27648);
  int max_host = 0;
  for (const JobSpec& job : generate_trace(config.trace))
    for (const CoflowSpec& coflow : job.coflows)
      for (const FlowSpec& flow : coflow.flows)
        max_host = std::max({max_host, flow.src_host, flow.dst_host});
  EXPECT_GE(max_host, 128);
  EXPECT_LT(max_host, 27648);
}

// The headline qualitative claim at test scale: on a multi-stage mix with
// contention, Gurita's average JCT beats the PFS baseline and is not far
// from the clairvoyant GuritaPlus.
TEST(HeadlineClaims, GuritaBeatsPfsOnMultiStageMix) {
  ExperimentConfig config =
      tiny_experiment(StructureKind::kTpcDs, ArrivalPattern::kPoisson);
  config.trace.num_jobs = 40;
  config.trace.mean_interarrival = 0.02;  // contention
  const ComparisonResult result =
      compare_schedulers(config, {"pfs", "gurita"});
  EXPECT_GT(result.improvement("gurita", "pfs"), 1.0);
}

TEST(CompareSchedulers, MultiSeedPoolsPopulations) {
  ExperimentConfig config =
      tiny_experiment(StructureKind::kFbTao, ArrivalPattern::kPoisson);
  config.trace.num_jobs = 8;
  const ComparisonResult pooled =
      compare_schedulers_seeds(config, {"pfs", "gurita"}, 3);
  EXPECT_EQ(pooled.collectors.at("pfs").total_jobs(), 24u);
  EXPECT_EQ(pooled.collectors.at("gurita").total_jobs(), 24u);
  // Per-job speedup works on the pooled, aligned populations.
  EXPECT_GT(pooled.per_job_speedup("gurita", "pfs"), 0.0);
}

TEST(CompareSchedulers, MultiSeedRejectsZeroSeeds) {
  ExperimentConfig config =
      tiny_experiment(StructureKind::kFbTao, ArrivalPattern::kPoisson);
  EXPECT_THROW(compare_schedulers_seeds(config, {"pfs"}, 0),
               std::logic_error);
}

TEST(HeadlineClaims, GuritaWithinRangeOfGuritaPlus) {
  ExperimentConfig config =
      tiny_experiment(StructureKind::kFbTao, ArrivalPattern::kPoisson);
  config.trace.num_jobs = 40;
  const ComparisonResult result =
      compare_schedulers(config, {"gurita", "gurita_plus"});
  const double ratio = result.improvement("gurita", "gurita_plus");
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

}  // namespace
}  // namespace gurita
