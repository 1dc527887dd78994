// Randomized property tests over the whole stack: random DAG jobs pushed
// through the engine under every scheduler must satisfy structural
// invariants regardless of policy or seed.
//
//   P1  Byte conservation: every flow delivers exactly its size.
//   P2  DAG order: a coflow is released at the instant its last dependency
//       finishes (never earlier, never later).
//   P3  CCT semantics: a coflow finishes with its slowest flow.
//   P4  JCT >= critical-path lower bound at line rate.
//   P5  Job completion: finish time equals the max coflow finish.
//   P6  Determinism: identical seeds give identical schedules.
#include <gtest/gtest.h>

#include <stdexcept>

#include "coflow/critical_path.h"
#include "coflow/shapes.h"
#include "exp/registry.h"
#include "flowsim/simulator.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

// gtest_discover_tests names each case after the object's raw bytes, so the
// struct must hold no pointer and no padding: a std::string member put its
// heap address into the names, which then changed on every build.
struct PropertyParams {
  std::uint64_t seed;
  char scheduler[32];
};
static_assert(sizeof(PropertyParams) == sizeof(std::uint64_t) + 32);

std::vector<PropertyParams> make_params() {
  std::vector<PropertyParams> params;
  for (std::uint64_t seed = 0; seed < 6; ++seed)
    for (const std::string& name : scheduler_names()) {
      PropertyParams p{seed, {}};
      if (name.size() >= sizeof(p.scheduler)) throw std::length_error(name);
      name.copy(p.scheduler, name.size());
      params.push_back(p);
    }
  return params;
}

std::vector<JobSpec> random_jobs(std::uint64_t seed, int num_hosts) {
  Rng rng(seed);
  std::vector<JobSpec> jobs;
  const int count = 4 + static_cast<int>(rng.uniform_int(0, 8));
  for (int j = 0; j < count; ++j) {
    JobSpec job;
    job.arrival_time = rng.uniform(0.0, 2.0);
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 5));
    job.deps = shapes::random_dag(rng, n, 0.4);
    for (int c = 0; c < n; ++c) {
      CoflowSpec coflow;
      const int width = 1 + static_cast<int>(rng.uniform_int(0, 3));
      for (int f = 0; f < width; ++f) {
        FlowSpec flow;
        flow.src_host = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(num_hosts) - 1));
        do {
          flow.dst_host = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(num_hosts) - 1));
        } while (flow.dst_host == flow.src_host);
        flow.size = rng.uniform(10.0, 500.0);
        coflow.flows.push_back(flow);
      }
      job.coflows.push_back(coflow);
    }
    jobs.push_back(job);
  }
  return jobs;
}

class EngineProperties : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(EngineProperties, StructuralInvariantsHold) {
  const auto& p = GetParam();
  const FatTree fabric(FatTree::Config{4, 100.0});
  const auto jobs = random_jobs(p.seed, fabric.num_hosts());

  const auto sched = make_scheduler(p.scheduler);
  Simulator sim(fabric, *sched);
  for (const auto& job : jobs) sim.submit(job);
  const SimResults results = sim.run();
  const SimState& state = sim.state();

  // P1: byte conservation.
  for (std::size_t i = 0; i < state.flow_count(); ++i) {
    const SimFlow& f = state.flow(FlowId{i});
    ASSERT_TRUE(f.finished());
    EXPECT_NEAR(f.bytes_sent(), f.size, 1e-2);
  }

  // P2 + P3 + P5 per job.
  for (std::size_t j = 0; j < state.job_count(); ++j) {
    const SimJob& job = state.job(JobId{j});
    double max_coflow_finish = 0;
    for (std::size_t c = 0; c < job.coflows.size(); ++c) {
      const SimCoflow& coflow = state.coflow(job.coflows[c]);
      ASSERT_TRUE(coflow.finished());
      max_coflow_finish = std::max(max_coflow_finish, coflow.finish_time);

      // P2: release = max(arrival, latest dependency finish).
      double dep_finish = job.arrival_time;
      for (int d : job.spec.deps[c]) {
        dep_finish = std::max(
            dep_finish, state.coflow(job.coflows[static_cast<std::size_t>(d)]).finish_time);
      }
      EXPECT_NEAR(coflow.release_time, dep_finish, 1e-9)
          << p.scheduler << " violated DAG release order";

      // P3: CCT ends with the slowest flow.
      double max_flow_finish = 0;
      for (FlowId fid : coflow.flows)
        max_flow_finish = std::max(max_flow_finish, state.flow(fid).finish_time);
      EXPECT_NEAR(coflow.finish_time, max_flow_finish, 1e-9);
    }
    // P5: job finishes with its last coflow.
    EXPECT_NEAR(job.finish_time, max_coflow_finish, 1e-9);

    // P4: critical-path bound.
    EXPECT_GE(job.finish_time - job.arrival_time,
              jct_lower_bound(job.spec, 100.0) - 1e-6);
  }

  // Results mirror state.
  EXPECT_EQ(results.jobs.size(), jobs.size());
}

TEST_P(EngineProperties, DeterministicReplay) {
  const auto& p = GetParam();
  const FatTree fabric(FatTree::Config{4, 100.0});
  const auto jobs = random_jobs(p.seed, fabric.num_hosts());

  auto run_once = [&] {
    const auto sched = make_scheduler(p.scheduler);
    Simulator sim(fabric, *sched);
    for (const auto& job : jobs) sim.submit(job);
    return sim.run();
  };
  const SimResults a = run_once();
  const SimResults b = run_once();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_DOUBLE_EQ(a.jobs[i].finish, b.jobs[i].finish) << p.scheduler;
  EXPECT_EQ(a.rate_recomputations, b.rate_recomputations);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesSchedulers, EngineProperties, ::testing::ValuesIn(make_params()),
    [](const ::testing::TestParamInfo<PropertyParams>& info) {
      return std::string(info.param.scheduler) + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace gurita
