// Tests for extended metrics (CCT stats, slowdowns, Jain fairness).
#include <gtest/gtest.h>

#include "metrics/extended.h"
#include "sched/pfs.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

// ------------------------------------------------------------ CctCollector

SimResults coflow_results(
    std::initializer_list<std::pair<int, double>> stage_cct) {
  SimResults r;
  std::uint64_t id = 0;
  for (const auto& [stage, cct] : stage_cct) {
    SimResults::CoflowResult c;
    c.id = CoflowId{id++};
    c.stage = stage;
    c.release = 0;
    c.finish = cct;
    r.coflows.push_back(c);
  }
  return r;
}

TEST(CctCollector, OverallAverage) {
  CctCollector c;
  c.add(coflow_results({{1, 2.0}, {1, 4.0}, {2, 6.0}}));
  EXPECT_DOUBLE_EQ(c.average_cct(), 4.0);
  EXPECT_EQ(c.coflows(), 3u);
}

TEST(CctCollector, RejectsZeroStage) {
  CctCollector c;
  SimResults r;
  SimResults::CoflowResult cf;
  cf.stage = 0;
  r.coflows.push_back(cf);
  EXPECT_THROW(c.add(r), std::logic_error);
}

// ---------------------------------------------------------------- slowdown

TEST(Slowdown, OneMeansOptimal) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 200.0});
  job.coflows.push_back(c);
  job.deps = {{}};
  sim.submit(job);
  const SimResults r = sim.run();
  const auto slowdowns = job_slowdowns({job}, r, 100.0);
  ASSERT_EQ(slowdowns.size(), 1u);
  EXPECT_NEAR(slowdowns[0], 1.0, 1e-9);  // alone at line rate
}

TEST(Slowdown, ContentionRaisesIt) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 2; ++i) {
    JobSpec job;
    CoflowSpec c;
    c.flows.push_back(FlowSpec{0, 1, 100.0});
    job.coflows.push_back(c);
    job.deps = {{}};
    jobs.push_back(job);
    sim.submit(job);
  }
  const SimResults r = sim.run();
  const auto slowdowns = job_slowdowns(jobs, r, 100.0);
  for (double s : slowdowns) EXPECT_NEAR(s, 2.0, 1e-9);  // halved rate
}

TEST(Slowdown, RejectsMismatch) {
  SimResults r;
  EXPECT_THROW(job_slowdowns({JobSpec{}}, r, 100.0), std::logic_error);
}

// ------------------------------------------------------------------- Jain

TEST(Jain, PerfectlyEvenIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness({2.0, 2.0, 2.0}), 1.0);
}

TEST(Jain, SkewLowersIndex) {
  const double skewed = jain_fairness({1.0, 1.0, 10.0});
  EXPECT_LT(skewed, 1.0);
  EXPECT_GT(skewed, 1.0 / 3.0);  // lower bound is 1/n
}

TEST(Jain, SingleValueIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness({5.0}), 1.0);
}

TEST(Jain, RejectsDegenerate) {
  EXPECT_THROW(jain_fairness({}), std::logic_error);
  EXPECT_THROW(jain_fairness({0.0, 0.0}), std::logic_error);
  EXPECT_THROW(jain_fairness({-1.0, 2.0}), std::logic_error);
}

}  // namespace
}  // namespace gurita
