// Tests for the event-driven flow-level engine: exact timing on known
// scenarios, coflow/job semantics (CCT = slowest flow, DAG release order),
// byte conservation, determinism, tick handling and failure guards.
#include <gtest/gtest.h>

#include "coflow/critical_path.h"
#include "coflow/shapes.h"
#include "flowsim/simulator.h"
#include "sched/pfs.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

// k=4 fat-tree with 100 B/s links: hand-computable numbers.
class SimFixture : public ::testing::Test {
 protected:
  SimFixture() : fabric_(FatTree::Config{4, 100.0}) {}
  FatTree fabric_;
  PfsScheduler pfs_;
};

JobSpec single_flow_job(Bytes size, int src = 0, int dst = 1,
                        Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

TEST_F(SimFixture, SingleFlowFinishesAtSizeOverCapacity) {
  Simulator sim(fabric_, pfs_);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_NEAR(r.jobs[0].jct(), 5.0, 1e-9);  // 500 B at 100 B/s
  EXPECT_NEAR(r.makespan, 5.0, 1e-9);
}

TEST_F(SimFixture, ArrivalTimeShiftsCompletion) {
  Simulator sim(fabric_, pfs_);
  sim.submit(single_flow_job(100.0, 0, 1, /*arrival=*/3.0));
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].finish, 4.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].jct(), 1.0, 1e-9);
}

TEST_F(SimFixture, TwoFlowsOnSameLinkShare) {
  // Same src/dst host pair: both flows traverse the same host links.
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 100.0});
  c.flows.push_back(FlowSpec{0, 1, 100.0});
  job.coflows.push_back(c);
  job.deps = {{}};

  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  const SimResults r = sim.run();
  // Fair sharing: both at 50 B/s, finish together at t=2.
  EXPECT_NEAR(r.jobs[0].jct(), 2.0, 1e-9);
}

TEST_F(SimFixture, CoflowCompletesWithSlowestFlow) {
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 100.0});   // shares h0->edge with next
  c.flows.push_back(FlowSpec{0, 2, 300.0});
  job.coflows.push_back(c);
  job.deps = {{}};

  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  const SimResults r = sim.run();
  ASSERT_EQ(r.coflows.size(), 1u);
  // Phase 1: both share the h0->edge uplink at 50 B/s until t=2 when flow 0
  // (100 B) finishes. Flow 1 then runs at 100 B/s: 200 B left -> 2 s more.
  EXPECT_NEAR(r.coflows[0].cct(), 4.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].jct(), 4.0, 1e-9);
}

TEST_F(SimFixture, TwoStageJobSerializesStages) {
  JobSpec job;
  CoflowSpec c1, c2;
  c1.flows.push_back(FlowSpec{0, 1, 200.0});
  c2.flows.push_back(FlowSpec{1, 2, 300.0});
  job.coflows = {c1, c2};
  job.deps = {{}, {0}};

  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  const SimResults r = sim.run();
  ASSERT_EQ(r.coflows.size(), 2u);
  EXPECT_NEAR(r.coflows[0].finish, 2.0, 1e-9);
  EXPECT_NEAR(r.coflows[1].release, 2.0, 1e-9);  // starts when dep completes
  EXPECT_NEAR(r.coflows[1].finish, 5.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].jct(), 5.0, 1e-9);
}

TEST_F(SimFixture, DiamondDagReleasesAfterAllDeps) {
  // 0 and 1 independent; 2 depends on both. Coflow 2 must wait for the
  // slower of the two.
  JobSpec job;
  CoflowSpec a, b, c;
  a.flows.push_back(FlowSpec{0, 1, 100.0});
  b.flows.push_back(FlowSpec{2, 3, 400.0});
  c.flows.push_back(FlowSpec{4, 5, 100.0});
  job.coflows = {a, b, c};
  job.deps = {{}, {}, {0, 1}};

  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  const SimResults r = sim.run();
  EXPECT_NEAR(r.coflows[2].release, 4.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].jct(), 5.0, 1e-9);
}

TEST_F(SimFixture, ParallelChainsOverlapStages) {
  // Two independent chains in one job: the second chain's stage-2 coflow
  // must not wait for the first chain (the §I "special case").
  JobSpec job;
  for (int i = 0; i < 4; ++i) {
    CoflowSpec c;
    // Chain 0 on hosts 0/1, chain 1 on hosts 8/9 (different pods): no
    // network contention between the chains.
    const int base = i < 2 ? 0 : 8;
    c.flows.push_back(FlowSpec{base, base + 1, i < 2 ? 400.0 : 100.0});
    job.coflows.push_back(c);
  }
  job.deps = shapes::parallel_chains(2, 2);

  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  const SimResults r = sim.run();
  // Chain 1 (100 B + 100 B) finishes at t=2 even though chain 0 runs to t=8.
  EXPECT_NEAR(r.coflows[3].finish, 2.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].jct(), 8.0, 1e-9);
}

TEST_F(SimFixture, CompletedStagesTracksProgress) {
  JobSpec job;
  for (int i = 0; i < 3; ++i) {
    CoflowSpec c;
    c.flows.push_back(FlowSpec{0, 1, 100.0});
    job.coflows.push_back(c);
  }
  job.deps = shapes::chain(3);

  Simulator sim(fabric_, pfs_);
  const JobId id = sim.submit(job);
  (void)id;
  const SimResults r = sim.run();
  EXPECT_EQ(sim.state().job(JobId{0}).completed_stages, 3);
  EXPECT_NEAR(r.jobs[0].jct(), 3.0, 1e-9);
}

TEST_F(SimFixture, AllBytesDelivered) {
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 3, 123.0});
  c.flows.push_back(FlowSpec{1, 2, 456.0});
  job.coflows.push_back(c);
  job.deps = {{}};

  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  (void)sim.run();
  for (std::size_t i = 0; i < sim.state().flow_count(); ++i) {
    const SimFlow& f = sim.state().flow(FlowId{i});
    EXPECT_TRUE(f.finished());
    EXPECT_NEAR(f.bytes_sent(), f.size, 1e-3);
  }
}

TEST_F(SimFixture, JctNeverBeatsCriticalPathBound) {
  JobSpec job;
  for (int i = 0; i < 3; ++i) {
    CoflowSpec c;
    c.flows.push_back(FlowSpec{i, i + 1, 100.0 * (i + 1)});
    job.coflows.push_back(c);
  }
  job.deps = shapes::chain(3);

  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  const SimResults r = sim.run();
  EXPECT_GE(r.jobs[0].jct(), jct_lower_bound(job, 100.0) - 1e-9);
}

TEST_F(SimFixture, SimultaneousArrivalsBothRun) {
  Simulator sim(fabric_, pfs_);
  sim.submit(single_flow_job(100.0, 0, 1, 1.0));
  sim.submit(single_flow_job(100.0, 8, 9, 1.0));  // different pod: no share
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].jct(), 1.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].jct(), 1.0, 1e-9);
}

TEST_F(SimFixture, LateArrivalReusesIdleNetwork) {
  Simulator sim(fabric_, pfs_);
  sim.submit(single_flow_job(100.0, 0, 1, 0.0));
  sim.submit(single_flow_job(100.0, 0, 1, 10.0));  // network idle by then
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[1].jct(), 1.0, 1e-9);
  EXPECT_NEAR(r.makespan, 11.0, 1e-9);
}

TEST_F(SimFixture, DeterministicAcrossRuns) {
  auto run_once = [&] {
    PfsScheduler pfs;
    Simulator sim(fabric_, pfs);
    for (int i = 0; i < 8; ++i)
      sim.submit(single_flow_job(100.0 + i * 37.0, i, 15 - i, i * 0.1));
    return sim.run();
  };
  const SimResults a = run_once();
  const SimResults b = run_once();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_DOUBLE_EQ(a.jobs[i].finish, b.jobs[i].finish);
}

TEST_F(SimFixture, SubmitAfterRunThrows) {
  Simulator sim(fabric_, pfs_);
  sim.submit(single_flow_job(10.0));
  (void)sim.run();
  EXPECT_THROW(sim.submit(single_flow_job(10.0)), std::logic_error);
}

TEST_F(SimFixture, RunTwiceThrows) {
  Simulator sim(fabric_, pfs_);
  sim.submit(single_flow_job(10.0));
  (void)sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST_F(SimFixture, InvalidJobRejectedAtSubmit) {
  Simulator sim(fabric_, pfs_);
  JobSpec bad = single_flow_job(10.0);
  bad.coflows[0].flows[0].dst_host = 999;  // beyond 16 hosts
  EXPECT_THROW(sim.submit(bad), std::logic_error);
}

TEST_F(SimFixture, MaxTimeGuardTrips) {
  Simulator::Config config;
  config.max_time = 0.5;
  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(1000.0));  // needs 10 s
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST_F(SimFixture, EmptySimulationCompletes) {
  Simulator sim(fabric_, pfs_);
  const SimResults r = sim.run();
  EXPECT_TRUE(r.jobs.empty());
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST_F(SimFixture, ResultsCarryJobMetadata) {
  Simulator sim(fabric_, pfs_);
  JobSpec job = single_flow_job(100.0);
  CoflowSpec c2;
  c2.flows.push_back(FlowSpec{1, 2, 50.0});
  job.coflows.push_back(c2);
  job.deps = {{}, {0}};
  sim.submit(job);
  const SimResults r = sim.run();
  EXPECT_EQ(r.jobs[0].num_stages, 2);
  EXPECT_DOUBLE_EQ(r.jobs[0].total_bytes, 150.0);
  EXPECT_EQ(r.coflows[1].stage, 2);
}

// ------------------------------------------------------------- tick logic

/// Scheduler that counts ticks and reports a priority change every Nth.
class TickProbe final : public Scheduler {
 public:
  explicit TickProbe(Time interval, int change_every)
      : interval_(interval), change_every_(change_every) {}
  std::string name() const override { return "tick_probe"; }
  Time tick_interval() const override { return interval_; }
  bool on_tick(Time now) override {
    (void)now;
    ++ticks_;
    return change_every_ > 0 && ticks_ % change_every_ == 0;
  }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    (void)now;
    (void)active;
    ++assigns_;
  }
  int ticks() const { return ticks_; }
  int assigns() const { return assigns_; }

 private:
  Time interval_;
  int change_every_;
  int ticks_ = 0;
  int assigns_ = 0;
};

TEST_F(SimFixture, TicksFireAtInterval) {
  TickProbe probe(/*interval=*/1.0, /*change_every=*/0);
  Simulator sim(fabric_, probe);
  sim.submit(single_flow_job(500.0));  // runs 5 s
  (void)sim.run();
  // Ticks at t=1,2,3,4 (flow completes at 5, tick at 5 may race the end).
  EXPECT_GE(probe.ticks(), 4);
  EXPECT_LE(probe.ticks(), 5);
}

TEST_F(SimFixture, UnchangedTicksDoNotRecompute) {
  TickProbe quiet(1.0, /*change_every=*/0);
  Simulator sim_a(fabric_, quiet);
  sim_a.submit(single_flow_job(500.0));
  const SimResults ra = sim_a.run();

  TickProbe noisy(1.0, /*change_every=*/1);
  Simulator sim_b(fabric_, noisy);
  sim_b.submit(single_flow_job(500.0));
  const SimResults rb = sim_b.run();

  EXPECT_LT(ra.rate_recomputations, rb.rate_recomputations);
}

/// Writes every active coflow's priority on every assign and reports a
/// change on every tick, so each tick allocates: job 0's coflow gets
/// (1, job0_weight), every other coflow (1, 2.0).
class PriorityTableScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "priority-table"; }
  [[nodiscard]] Time tick_interval() const override { return 0.1; }
  bool on_tick(Time now) override {
    (void)now;
    return true;
  }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    (void)now;
    for (const SimFlow* f : active)
      set_priority(state().job(f->job).coflows[f->coflow_index], 1,
                   f->job.value() == 0 ? job0_weight : 2.0);
  }
  double job0_weight = 1.5;
};

TEST(PriorityWriter, DirtiesOnlyTheComponentWhosePriorityMoved) {
  // Big switch: job 0's two flows leave host 0 (one component), job 1's
  // flow 4 -> 5 is a second component. Nothing finishes before t = 10.
  const BigSwitch fabric(BigSwitch::Config{8, 100.0});
  PriorityTableScheduler scheduler;
  Simulator sim(fabric, scheduler);
  JobSpec fan_out = single_flow_job(1000.0, 0, 1);
  fan_out.coflows[0].flows.push_back(FlowSpec{0, 2, 1000.0});
  sim.submit(fan_out);
  sim.submit(single_flow_job(1000.0, 4, 5));
  ASSERT_TRUE(sim.run_to(0.05));
  const AllocStats first = sim.allocator_stats();
  ASSERT_EQ(first.allocations, 1u);
  ASSERT_EQ(first.flows_solved, 3u);
  ASSERT_EQ(first.components_solved, 2u);

  // Nine ticks rewrite the same priorities: nine allocations, no flow
  // re-solved.
  ASSERT_TRUE(sim.run_to(0.95));
  EXPECT_EQ(sim.allocator_stats().allocations, 10u);
  EXPECT_EQ(sim.allocator_stats().flows_solved, first.flows_solved);

  // Job 0's coflow moves: its component alone is re-solved.
  scheduler.job0_weight = 3.0;
  ASSERT_TRUE(sim.run_to(1.05));
  const AllocStats last = sim.allocator_stats();
  EXPECT_EQ(last.allocations, 11u);
  EXPECT_EQ(last.flows_solved, first.flows_solved + 2);
  EXPECT_EQ(last.components_solved, first.components_solved + 1);
}

TEST_F(SimFixture, FlowPathsAssignedViaEcmp) {
  Simulator sim(fabric_, pfs_);
  sim.submit(single_flow_job(100.0, 0, 15));  // cross-pod: 6 hops
  (void)sim.run();
  EXPECT_EQ(sim.state().flow(FlowId{0}).path.size(), 6u);
}

TEST_F(SimFixture, StateQueriesObserveProgress) {
  // Two-flow coflow; run to completion then inspect final accounting.
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 100.0});
  c.flows.push_back(FlowSpec{2, 3, 200.0});
  job.coflows.push_back(c);
  job.deps = {{}};
  Simulator sim(fabric_, pfs_);
  sim.submit(job);
  (void)sim.run();
  EXPECT_NEAR(sim.state().coflow_bytes_sent(CoflowId{0}), 300.0, 1e-3);
  EXPECT_DOUBLE_EQ(sim.state().coflow_total_bytes(CoflowId{0}), 300.0);
  EXPECT_NEAR(sim.state().job_bytes_sent(JobId{0}), 300.0, 1e-3);
  // The job's one coflow is its stage 1, so it carries every stage byte.
  EXPECT_EQ(sim.state().job(JobId{0}).stage_of[0], 1);
  EXPECT_EQ(sim.state().coflow_open_connections(CoflowId{0}), 0);
}

}  // namespace
}  // namespace gurita
