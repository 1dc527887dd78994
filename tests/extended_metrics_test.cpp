// Tests for extended metrics (CCT stats, slowdowns, Jain fairness) and the
// engine's failure injection + link utilization statistics.
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

TEST(CctCollector, PerStage) {
  CctCollector c;
  c.add(coflow_results({{1, 2.0}, {1, 4.0}, {3, 9.0}}));
  EXPECT_DOUBLE_EQ(c.average_cct_at_stage(1), 3.0);
  EXPECT_DOUBLE_EQ(c.average_cct_at_stage(2), 0.0);
  EXPECT_DOUBLE_EQ(c.average_cct_at_stage(3), 9.0);
  EXPECT_EQ(c.max_stage_seen(), 3);
}

TEST(CctCollector, P95) {
  CctCollector c;
  SimResults r;
  for (int i = 1; i <= 100; ++i) {
    SimResults::CoflowResult cf;
    cf.id = CoflowId{static_cast<std::uint64_t>(i)};
    cf.stage = 1;
    cf.finish = i;
    r.coflows.push_back(cf);
  }
  c.add(r);
  EXPECT_DOUBLE_EQ(c.p95_cct(), 95.0);
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

// --------------------------------------------- failure injection + stats

class DisruptionFixture : public ::testing::Test {
 protected:
  DisruptionFixture() : fabric_(FatTree::Config{4, 100.0}) {}
  FatTree fabric_;
  PfsScheduler pfs_;

  JobSpec job(Bytes size, int src, int dst, Time arrival = 0) {
    JobSpec j;
    j.arrival_time = arrival;
    CoflowSpec c;
    c.flows.push_back(FlowSpec{src, dst, size});
    j.coflows.push_back(c);
    j.deps = {{}};
    return j;
  }
};

TEST_F(DisruptionFixture, DegradedLinkSlowsFlows) {
  // Degrade host 0's uplink to 25% at t=1.
  Simulator::Config config;
  const LinkId uplink =
      fabric_.topology().find_link(fabric_.host(0), fabric_.edge_of_host(0));
  config.disruptions.push_back(CapacityChange{1.0, uplink, 25.0});
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(200.0, 0, 1));
  const SimResults r = sim.run();
  // 100 B in the first second, then 100 B at 25 B/s: finish at 5.
  EXPECT_NEAR(r.jobs[0].finish, 5.0, 1e-9);
}

TEST_F(DisruptionFixture, RestoredLinkSpeedsBackUp) {
  Simulator::Config config;
  const LinkId uplink =
      fabric_.topology().find_link(fabric_.host(0), fabric_.edge_of_host(0));
  config.disruptions.push_back(CapacityChange{0.0, uplink, 25.0});
  config.disruptions.push_back(CapacityChange{2.0, uplink, 100.0});
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(150.0, 0, 1));
  const SimResults r = sim.run();
  // 50 B in [0,2] at 25 B/s, then 100 B at full rate: finish at 3.
  EXPECT_NEAR(r.jobs[0].finish, 3.0, 1e-9);
}

TEST_F(DisruptionFixture, UnaffectedPathsKeepFullRate) {
  Simulator::Config config;
  const LinkId uplink =
      fabric_.topology().find_link(fabric_.host(0), fabric_.edge_of_host(0));
  config.disruptions.push_back(CapacityChange{0.0, uplink, 10.0});
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(100.0, 8, 9));  // different pod entirely
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].finish, 1.0, 1e-9);
}

TEST_F(DisruptionFixture, DeadLinkTripsStallGuard) {
  Simulator::Config config;
  config.max_time = 100.0;
  const LinkId uplink =
      fabric_.topology().find_link(fabric_.host(0), fabric_.edge_of_host(0));
  config.disruptions.push_back(CapacityChange{0.5, uplink, 0.0});
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(200.0, 0, 1));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST_F(DisruptionFixture, RejectsUnknownLink) {
  Simulator::Config config;
  config.disruptions.push_back(CapacityChange{0.0, LinkId{999999}, 1.0});
  EXPECT_THROW(Simulator(fabric_, pfs_, config), std::logic_error);
}

}  // namespace
}  // namespace gurita
