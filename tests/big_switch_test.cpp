// Tests for the big-switch fabric abstraction and MCS, plus cross-fabric
// engine runs (the Fabric interface in action).
#include <gtest/gtest.h>

#include "exp/registry.h"
#include "fattree_graph_oracle.h"
#include "flowsim/simulator.h"
#include "sched/mcs.h"
#include "sched/pfs.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

// -------------------------------------------------------------- BigSwitch

TEST(BigSwitch, Structure) {
  const BigSwitch bs(BigSwitch::Config{16, 100.0});
  EXPECT_EQ(bs.num_hosts(), 16);
  EXPECT_EQ(bs.topology().link_count(), 32u);  // up + down per host
  // Port ids are the graph builder's: hosts around one core node.
  const test::BigSwitchGraph oracle(16, 100.0);
  const test::Graph& g = oracle.graph();
  EXPECT_EQ(g.node_count(), 17u);  // hosts + core
  EXPECT_EQ(g.link_count(), bs.topology().link_count());
  for (int h = 0; h < 16; ++h) {
    EXPECT_EQ(bs.uplink(h), oracle.uplink(h));
    EXPECT_EQ(bs.downlink(h), oracle.downlink(h));
    EXPECT_EQ(g.link(bs.uplink(h)).src, oracle.host(h));
    EXPECT_EQ(g.link(bs.uplink(h)).dst, oracle.core());
    EXPECT_EQ(g.link(bs.downlink(h)).src, oracle.core());
    EXPECT_EQ(g.link(bs.downlink(h)).dst, oracle.host(h));
  }
  for (std::uint64_t l = 0; l < g.link_count(); ++l)
    EXPECT_EQ(bs.topology().capacity(LinkId{l}), g.link(LinkId{l}).capacity);
}

TEST(BigSwitch, RoutesAreTwoHops) {
  const BigSwitch bs(BigSwitch::Config{8, 100.0});
  const auto path = bs.route(FlowId{0}, 2, 5);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], bs.uplink(2));
  EXPECT_EQ(path[1], bs.downlink(5));
}

TEST(BigSwitch, RejectsDegenerate) {
  EXPECT_THROW(BigSwitch(BigSwitch::Config{1, 100.0}), std::logic_error);
  EXPECT_THROW(BigSwitch(BigSwitch::Config{8, 0.0}), std::logic_error);
  const BigSwitch bs(BigSwitch::Config{8, 100.0});
  EXPECT_THROW(bs.route(FlowId{0}, 3, 3), std::logic_error);
  EXPECT_THROW(bs.uplink(8), std::logic_error);
}

TEST(BigSwitch, OnlyPortsCongest) {
  // Two flows sharing a sender port halve; disjoint ports don't interact —
  // a non-blocking core by construction.
  const BigSwitch bs(BigSwitch::Config{8, 100.0});
  PfsScheduler pfs;
  Simulator sim(bs, pfs);
  JobSpec shared;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 100.0});
  c.flows.push_back(FlowSpec{0, 2, 100.0});  // same sender port
  c.flows.push_back(FlowSpec{3, 4, 100.0});  // disjoint
  shared.coflows.push_back(c);
  shared.deps = {{}};
  sim.submit(shared);
  const SimResults r = sim.run();
  EXPECT_NEAR(sim.state().flow(FlowId{0}).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.state().flow(FlowId{1}).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.state().flow(FlowId{2}).finish_time, 1.0, 1e-9);
  EXPECT_NEAR(r.makespan, 2.0, 1e-9);
}

TEST(BigSwitch, WorksWithEverySchedulerOnTraceWorkload) {
  const BigSwitch bs(BigSwitch::Config{32, gbps(10.0)});
  TraceConfig trace;
  trace.num_jobs = 12;
  trace.num_hosts = bs.num_hosts();
  trace.max_width = 8;
  trace.category_weights = {0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0};
  trace.seed = 17;
  const auto jobs = generate_trace(trace);
  for (const std::string& name : scheduler_names()) {
    const auto sched = make_scheduler(name);
    Simulator sim(bs, *sched);
    for (const JobSpec& job : jobs) sim.submit(job);
    const SimResults r = sim.run();
    EXPECT_EQ(r.jobs.size(), jobs.size()) << name;
  }
}

TEST(BigSwitch, BigSwitchIsNeverSlowerThanFatTreeForOneFlow) {
  // A single flow sees line rate on both fabrics (sanity of capacities).
  PfsScheduler pfs_a, pfs_b;
  const BigSwitch bs(BigSwitch::Config{16, 100.0});
  const FatTree ft(FatTree::Config{4, 100.0});
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 9, 300.0});
  job.coflows.push_back(c);
  job.deps = {{}};

  Simulator sim_bs(bs, pfs_a);
  sim_bs.submit(job);
  Simulator sim_ft(ft, pfs_b);
  sim_ft.submit(job);
  EXPECT_NEAR(sim_bs.run().makespan, 3.0, 1e-9);
  EXPECT_NEAR(sim_ft.run().makespan, 3.0, 1e-9);
}

// -------------------------------------------------------------------- MCS

class McsFixture : public ::testing::Test {
 protected:
  McsFixture() : fabric_(FatTree::Config{4, 100.0}) {}
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

TEST_F(McsFixture, WideLongCoflowDemoted) {
  McsScheduler::Config config;
  config.first_threshold = 200.0;  // width x bytes signal
  config.update_interval = 0.1;
  McsScheduler mcs(config);
  Simulator sim(fabric_, mcs);
  // Wide elephant: 4 flows from distinct senders into distinct receivers
  // sharing nothing with the mouse until host 0.
  JobSpec elephant;
  CoflowSpec c;
  for (int i = 0; i < 4; ++i) c.flows.push_back(FlowSpec{i, i + 4, 500.0});
  elephant.coflows.push_back(c);
  elephant.deps = {{}};
  sim.submit(elephant);
  sim.submit(one_flow_job(50.0, 0, 4, 2.0));
  const SimResults r = sim.run();
  // The mouse preempts the demoted wide coflow.
  EXPECT_LT(r.jobs[1].jct(), 1.0);
}

TEST_F(McsFixture, StageAgnosticByDesign) {
  // MCS never resets priority per stage; a later mouse stage of a big job
  // re-enters at the TOP though, because each coflow is a fresh signal —
  // document the actual semantic: per-coflow (like Aalo), not per-job.
  McsScheduler::Config config;
  config.first_threshold = 200.0;
  config.update_interval = 0.1;
  McsScheduler mcs(config);
  Simulator sim(fabric_, mcs);
  JobSpec job;
  CoflowSpec big, tiny;
  big.flows.push_back(FlowSpec{0, 1, 1000.0});
  tiny.flows.push_back(FlowSpec{1, 2, 50.0});
  job.coflows = {big, tiny};
  job.deps = {{}, {0}};
  sim.submit(job);
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].jct(), 10.5, 1e-6);
}

TEST_F(McsFixture, CompletesMixedWorkload) {
  McsScheduler mcs;
  Simulator sim(fabric_, mcs);
  for (int i = 0; i < 8; ++i)
    sim.submit(one_flow_job(100.0 + 30.0 * i, i, 15 - i, 0.1 * i));
  const SimResults r = sim.run();
  EXPECT_EQ(r.jobs.size(), 8u);
}

}  // namespace
}  // namespace gurita
