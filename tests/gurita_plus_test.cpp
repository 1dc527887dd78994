// Behavioural tests for GuritaPlus, the clairvoyant variant (Fig. 8
// comparator): exact critical paths, instantaneous Ψ, free promotion.
#include <gtest/gtest.h>

#include "core/gurita.h"
#include "core/gurita_plus.h"
#include "flowsim/simulator.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

class GuritaPlusFixture : public ::testing::Test {
 protected:
  GuritaPlusFixture() : fabric_(FatTree::Config{4, 100.0}) {}
  FatTree fabric_;

  static GuritaPlusScheduler::Config small_config() {
    GuritaPlusScheduler::Config config;
    config.first_threshold = 75.0;
    config.multiplier = 4.0;
    return config;
  }
};

JobSpec one_flow_job(Bytes size, int src, int dst, Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

TEST_F(GuritaPlusFixture, CompletesAllJobs) {
  GuritaPlusScheduler plus(small_config());
  Simulator sim(fabric_, plus);
  for (int i = 0; i < 6; ++i)
    sim.submit(one_flow_job(80.0 + 40.0 * i, i, 15 - i, 0.1 * i));
  const SimResults r = sim.run();
  EXPECT_EQ(r.jobs.size(), 6u);
}

TEST_F(GuritaPlusFixture, NoTicksNeeded) {
  // Clairvoyant: information is instantaneous, no δ coordination.
  GuritaPlusScheduler plus(small_config());
  EXPECT_DOUBLE_EQ(plus.tick_interval(), 0.0);
}

TEST_F(GuritaPlusFixture, MousePreemptsElephantInstantly) {
  GuritaPlusScheduler::Config config = small_config();
  config.starvation_mitigation = false;
  GuritaPlusScheduler plus(config);
  Simulator sim(fabric_, plus);
  JobSpec elephant;
  CoflowSpec c;
  for (int i = 0; i < 4; ++i) c.flows.push_back(FlowSpec{i, i + 4, 500.0});
  elephant.coflows.push_back(c);
  elephant.deps = {{}};
  sim.submit(elephant);
  sim.submit(one_flow_job(50.0, 0, 4, 2.0));
  const SimResults r = sim.run();
  // No δ staleness: the mouse is never blocked at all.
  EXPECT_NEAR(r.jobs[1].jct(), 0.5, 0.05);
}

TEST_F(GuritaPlusFixture, TracksGuritaCloselyOnMixedWorkload) {
  // Fig. 8's claim at toy scale: Gurita within a small factor of the
  // clairvoyant version on the same workload.
  auto submit_jobs = [&](Simulator& sim) {
    for (int i = 0; i < 10; ++i) {
      JobSpec job;
      CoflowSpec c1, c2;
      c1.flows.push_back(FlowSpec{i, (i + 5) % 16, 100.0 + 30.0 * i});
      c2.flows.push_back(FlowSpec{(i + 5) % 16, (i + 9) % 16, 60.0});
      job.coflows = {c1, c2};
      job.deps = {{}, {0}};
      job.arrival_time = 0.3 * i;
      sim.submit(job);
    }
  };

  GuritaPlusScheduler plus(small_config());
  Simulator sim_plus(fabric_, plus);
  submit_jobs(sim_plus);
  const SimResults r_plus = sim_plus.run();

  GuritaScheduler::Config gc;
  gc.first_threshold = 75.0;
  gc.multiplier = 4.0;
  gc.delta = 0.1;
  GuritaScheduler gurita(gc);
  Simulator sim_g(fabric_, gurita);
  submit_jobs(sim_g);
  const SimResults r_g = sim_g.run();

  EXPECT_LT(r_g.average_jct(), r_plus.average_jct() * 1.5);
  EXPECT_GT(r_g.average_jct(), r_plus.average_jct() * 0.5);
}

TEST_F(GuritaPlusFixture, CriticalPathCoflowPrioritized) {
  // Job 0's leaf is on its critical path; job 1's contending coflow is the
  // *lighter* branch of a fork, i.e. off job 1's critical path. With the
  // rule-4 discount the critical leaf wins the shared 0->1 bottleneck.
  GuritaPlusScheduler::Config with_cp = small_config();
  with_cp.use_critical_path = true;
  with_cp.starvation_mitigation = false;
  with_cp.first_threshold = 10.0;
  with_cp.multiplier = 4.0;  // thresholds 10 / 40 / 160
  GuritaPlusScheduler plus(with_cp);
  Simulator sim(fabric_, plus);

  // Job 0: chain of 2; leaf (300 B, critical) on shared link 0->1.
  JobSpec chained;
  CoflowSpec leaf, root;
  leaf.flows.push_back(FlowSpec{0, 1, 300.0});
  root.flows.push_back(FlowSpec{1, 2, 300.0});
  chained.coflows = {leaf, root};
  chained.deps = {{}, {0}};
  sim.submit(chained);

  // Job 1: fork with a heavy branch (500 B, elsewhere, critical) and a
  // light branch (250 B on 0->1, off-critical), joined by a root.
  JobSpec forked;
  CoflowSpec heavy, light, join;
  heavy.flows.push_back(FlowSpec{8, 9, 500.0});
  light.flows.push_back(FlowSpec{0, 1, 250.0});
  join.flows.push_back(FlowSpec{9, 10, 100.0});
  forked.coflows = {heavy, light, join};
  forked.deps = {{}, {}, {0, 1}};
  sim.submit(forked);

  const SimResults r = sim.run();
  // Ψ(leaf) = 0.75·300·0.5 = 112.5 -> queue 2; Ψ(light) = 0.75·250 =
  // 187.5 -> queue 3: the critical leaf preempts the off-critical branch.
  // coflows: 0 = leaf, 3 = light (job 1's second coflow).
  EXPECT_NEAR(r.coflows[0].finish, 3.0, 0.1);
  EXPECT_GT(r.coflows[3].finish, r.coflows[0].finish);
}

TEST_F(GuritaPlusFixture, AblationCriticalPathOnOff) {
  // The discount must only ever help or be neutral for chained jobs in
  // aggregate on a chain-heavy workload.
  auto run_with = [&](bool use_cp) {
    GuritaPlusScheduler::Config config = small_config();
    config.use_critical_path = use_cp;
    GuritaPlusScheduler plus(config);
    Simulator sim(fabric_, plus);
    for (int i = 0; i < 8; ++i) {
      JobSpec job;
      CoflowSpec c1, c2, c3;
      c1.flows.push_back(FlowSpec{i, i + 8, 200.0});
      c2.flows.push_back(FlowSpec{i, i + 8, 40.0});
      c3.flows.push_back(FlowSpec{i + 8, (i + 1) % 8, 150.0});
      job.coflows = {c1, c2, c3};
      job.deps = {{}, {}, {0, 1}};  // c1 heavy branch = critical path
      job.arrival_time = 0.2 * i;
      sim.submit(job);
    }
    return sim.run().average_jct();
  };
  const double with_cp = run_with(true);
  const double without_cp = run_with(false);
  // Not a strict inequality in every topology, but on this chain-heavy mix
  // the discount should not hurt by more than noise.
  EXPECT_LT(with_cp, without_cp * 1.1);
}

}  // namespace
}  // namespace gurita
