// Tests for the Varys/SEBF clairvoyant baseline.
#include <gtest/gtest.h>

#include "flowsim/simulator.h"
#include "sched/varys.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

SimFlow flow_between(std::uint64_t id, int src, int dst, Bytes remaining) {
  SimFlow f;
  f.id = FlowId{id};
  f.src_host = src;
  f.dst_host = dst;
  f.size = remaining;
  f.remaining = remaining;
  return f;
}

TEST(VarysBottleneck, SingleFlow) {
  const SimFlow f = flow_between(0, 0, 1, 100.0);
  EXPECT_DOUBLE_EQ(VarysScheduler::bottleneck_bytes({&f}, 0.0), 100.0);
}

TEST(VarysBottleneck, SharedSenderPortAggregates) {
  const SimFlow a = flow_between(0, 0, 1, 100.0);
  const SimFlow b = flow_between(1, 0, 2, 150.0);
  // Both leave host 0: its egress carries 250.
  EXPECT_DOUBLE_EQ(VarysScheduler::bottleneck_bytes({&a, &b}, 0.0), 250.0);
}

TEST(VarysBottleneck, SharedReceiverPortAggregates) {
  const SimFlow a = flow_between(0, 1, 0, 100.0);
  const SimFlow b = flow_between(1, 2, 0, 150.0);
  EXPECT_DOUBLE_EQ(VarysScheduler::bottleneck_bytes({&a, &b}, 0.0), 250.0);
}

TEST(VarysBottleneck, DisjointPortsTakeMax) {
  const SimFlow a = flow_between(0, 0, 1, 100.0);
  const SimFlow b = flow_between(1, 2, 3, 60.0);
  EXPECT_DOUBLE_EQ(VarysScheduler::bottleneck_bytes({&a, &b}, 0.0), 100.0);
}

class VarysFixture : public ::testing::Test {
 protected:
  VarysFixture() : fabric_(FatTree::Config{4, 100.0}) {}
  FatTree fabric_;
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

TEST_F(VarysFixture, SmallestBottleneckRunsFirst) {
  VarysScheduler varys;
  Simulator sim(fabric_, varys);
  sim.submit(one_flow_job(300.0, 0, 1));  // bottleneck 300 B
  sim.submit(one_flow_job(100.0, 0, 1));  // bottleneck 100 B: first
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[1].finish, 1.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].finish, 4.0, 1e-9);
}

TEST_F(VarysFixture, RemainingBytesDrivePreemption) {
  // An almost-done elephant outranks a fresh mouse with more remaining.
  VarysScheduler varys;
  Simulator sim(fabric_, varys);
  sim.submit(one_flow_job(200.0, 0, 1, 0.0));
  sim.submit(one_flow_job(150.0, 0, 1, 1.2));  // elephant has 80 left then
  const SimResults r = sim.run();
  // Elephant keeps the link (smaller remaining Γ): finishes at 2.0.
  EXPECT_NEAR(r.jobs[0].finish, 2.0, 1e-6);
  EXPECT_NEAR(r.jobs[1].finish, 3.5, 1e-6);
}

TEST_F(VarysFixture, CompletesMultiStageWorkload) {
  VarysScheduler varys;
  Simulator sim(fabric_, varys);
  for (int i = 0; i < 6; ++i) {
    JobSpec job;
    CoflowSpec c1, c2;
    c1.flows.push_back(FlowSpec{i, i + 8, 100.0 + 25.0 * i});
    c2.flows.push_back(FlowSpec{i + 8, (i + 1) % 8, 50.0});
    job.coflows = {c1, c2};
    job.deps = {{}, {0}};
    job.arrival_time = 0.1 * i;
    sim.submit(job);
  }
  const SimResults r = sim.run();
  EXPECT_EQ(r.jobs.size(), 6u);
  for (const auto& j : r.jobs) EXPECT_GT(j.jct(), 0.0);
}

}  // namespace
}  // namespace gurita
