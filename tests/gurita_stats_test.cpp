// Tests for Gurita's introspection counters and the umbrella header.
#include <gtest/gtest.h>

#include "gurita.h"  // umbrella: everything below must resolve through it

namespace gurita {
namespace {

TEST(GuritaStats, CountersStartAtZero) {
  GuritaScheduler gurita;
  EXPECT_EQ(gurita.stats().hr_updates, 0u);
  EXPECT_EQ(gurita.stats().demotions, 0u);
  EXPECT_EQ(gurita.stats().self_demotions, 0u);
  EXPECT_EQ(gurita.stats().critical_path_hits, 0u);
}

TEST(GuritaStats, HrUpdatesAccumulateWithTicks) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  GuritaScheduler::Config config;
  config.delta = 0.5;
  config.first_threshold = 75.0;
  config.multiplier = 4.0;
  GuritaScheduler gurita(config);
  Simulator sim(fabric, gurita);
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 500.0});  // runs 5 s -> ~9 ticks
  job.coflows.push_back(c);
  job.deps = {{}};
  sim.submit(job);
  (void)sim.run();
  EXPECT_GE(gurita.stats().hr_updates, 8u);
}

TEST(GuritaStats, ElephantTriggersDemotion) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  GuritaScheduler::Config config;
  config.delta = 0.1;
  config.first_threshold = 50.0;
  config.multiplier = 4.0;
  GuritaScheduler gurita(config);
  Simulator sim(fabric, gurita);
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 1000.0});
  c.flows.push_back(FlowSpec{2, 3, 1000.0});
  job.coflows.push_back(c);
  job.deps = {{}};
  sim.submit(job);
  (void)sim.run();
  // Demoted either by an HR round or the receiver-local self check.
  EXPECT_GE(gurita.stats().demotions + gurita.stats().self_demotions, 1u);
}

TEST(GuritaStats, CriticalPathHitsWithMultipleJobs) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  GuritaScheduler::Config config;
  config.delta = 0.1;
  config.first_threshold = 50.0;
  config.multiplier = 4.0;
  GuritaScheduler gurita(config);
  Simulator sim(fabric, gurita);
  // Several jobs so AVA accumulates coflow ℓ_max observations; the larger
  // later coflows then get flagged as critical-path candidates.
  for (int i = 0; i < 6; ++i) {
    JobSpec job;
    CoflowSpec c;
    c.flows.push_back(
        FlowSpec{i, 8 + i, i < 3 ? 100.0 : 1500.0});  // small then large
    job.coflows.push_back(c);
    job.deps = {{}};
    job.arrival_time = i * 1.5;
    sim.submit(job);
  }
  (void)sim.run();
  EXPECT_GE(gurita.stats().critical_path_hits, 1u);
}

TEST(UmbrellaHeader, ExposesTheWholeApi) {
  // Compile-time smoke: one symbol from every major module.
  (void)sizeof(FatTree);
  (void)sizeof(BigSwitch);
  (void)sizeof(JobSpec);
  (void)sizeof(Simulator);
  (void)sizeof(GuritaScheduler);
  (void)sizeof(GuritaPlusScheduler);
  (void)sizeof(AaloScheduler);
  (void)sizeof(VarysScheduler);
  (void)sizeof(McsScheduler);
  (void)sizeof(TraceConfig);
  (void)sizeof(JctCollector);
  (void)sizeof(CctCollector);
  EXPECT_EQ(category_of(10 * kMB), 0);
  EXPECT_EQ(scheduler_names().size(), 8u);
}

}  // namespace
}  // namespace gurita
