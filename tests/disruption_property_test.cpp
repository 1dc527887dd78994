// Property tests under failure injection: random straggler windows and
// random fault plans must never break the engine's structural invariants,
// only slow things down (or fail jobs, accounted exactly).
#include <gtest/gtest.h>

#include <sstream>

#include "coflow/shapes.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "fault/plan.h"
#include "flowsim/simulator.h"
#include "topology/fattree.h"
#include "seeded_comparison.h"

namespace gurita {
namespace {

std::vector<JobSpec> random_jobs(Rng& rng, int num_hosts) {
  std::vector<JobSpec> jobs;
  const int count = 4 + static_cast<int>(rng.uniform_int(0, 4));
  for (int j = 0; j < count; ++j) {
    JobSpec job;
    job.arrival_time = rng.uniform(0.0, 1.0);
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 3));
    job.deps = shapes::random_dag(rng, n, 0.4);
    for (int c = 0; c < n; ++c) {
      CoflowSpec coflow;
      const int width = 1 + static_cast<int>(rng.uniform_int(0, 2));
      for (int f = 0; f < width; ++f) {
        FlowSpec flow;
        flow.src_host = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(num_hosts) - 1));
        do {
          flow.dst_host = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(num_hosts) - 1));
        } while (flow.dst_host == flow.src_host);
        flow.size = rng.uniform(20.0, 400.0);
        coflow.flows.push_back(flow);
      }
      job.coflows.push_back(coflow);
    }
    jobs.push_back(job);
  }
  return jobs;
}

class DisruptionProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisruptionProperties, InvariantsSurviveDegradations) {
  Rng rng(GetParam());
  const FatTree fabric(FatTree::Config{4, 100.0});
  const auto jobs = random_jobs(rng, fabric.num_hosts());

  Simulator::Config config;
  // A handful of random straggler windows (never to zero), one per host:
  // degradations that abort nothing, so every job must still finish.
  const int windows = 2 + static_cast<int>(rng.uniform_int(0, 4));
  const int first = static_cast<int>(
      rng.uniform_int(0, static_cast<std::uint64_t>(fabric.num_hosts()) - 1));
  for (int i = 0; i < windows; ++i) {
    FaultEvent start;
    start.kind = FaultKind::kStragglerStart;
    start.host = (first + i) % fabric.num_hosts();
    start.time = rng.uniform(0.0, 5.0);
    start.factor = rng.uniform(0.1, 0.9);
    FaultEvent end = start;
    end.kind = FaultKind::kStragglerEnd;
    end.time = start.time + rng.uniform(0.1, 2.0);
    config.faults.events.push_back(start);
    config.faults.events.push_back(end);
  }

  const auto sched = make_scheduler(GetParam() % 2 == 0 ? "gurita" : "pfs");
  Simulator sim(fabric, *sched, config);
  for (const auto& job : jobs) sim.submit(job);
  const SimResults results = sim.run();

  // Everything still completes, bytes conserved, DAG order preserved.
  ASSERT_EQ(results.jobs.size(), jobs.size());
  EXPECT_EQ(results.flow_aborts, 0u);
  EXPECT_EQ(results.failed_jobs, 0u);
  const SimState& state = sim.state();
  for (std::size_t i = 0; i < state.flow_count(); ++i) {
    const SimFlow& f = state.flow(FlowId{i});
    EXPECT_TRUE(f.finished());
    EXPECT_NEAR(f.bytes_sent(), f.size, 1e-2);
  }
  for (std::size_t j = 0; j < state.job_count(); ++j) {
    const SimJob& job = state.job(JobId{j});
    for (std::size_t c = 0; c < job.coflows.size(); ++c) {
      const SimCoflow& coflow = state.coflow(job.coflows[c]);
      double dep_finish = job.arrival_time;
      for (int d : job.spec.deps[c])
        dep_finish = std::max(
            dep_finish,
            state.coflow(job.coflows[static_cast<std::size_t>(d)]).finish_time);
      EXPECT_NEAR(coflow.release_time, dep_finish, 1e-9);
    }
  }
}

TEST_P(DisruptionProperties, DegradationNeverSpeedsUpTheRun) {
  Rng rng(GetParam() + 1000);
  const FatTree fabric(FatTree::Config{4, 100.0});
  const auto jobs = random_jobs(rng, fabric.num_hosts());

  auto run_with = [&](bool degrade) {
    Simulator::Config config;
    if (degrade) {
      // Every host straggles at half rate from t=0 on: uniform slowdown.
      for (int h = 0; h < fabric.num_hosts(); ++h) {
        FaultEvent e;
        e.kind = FaultKind::kStragglerStart;
        e.host = h;
        e.factor = 0.5;
        config.faults.events.push_back(e);
      }
    }
    const auto sched = make_scheduler("pfs");
    Simulator sim(fabric, *sched, config);
    for (const auto& job : jobs) sim.submit(job);
    return sim.run();
  };

  const SimResults normal = run_with(false);
  const SimResults degraded = run_with(true);
  EXPECT_GT(degraded.makespan, normal.makespan);  // the windows bite
  for (std::size_t i = 0; i < normal.jobs.size(); ++i)
    EXPECT_GE(degraded.jobs[i].jct(), normal.jobs[i].jct() - 1e-9);
}

TEST_P(DisruptionProperties, RandomFaultPlansPreserveInvariants) {
  Rng rng(GetParam() + 2000);
  const FatTree fabric(FatTree::Config{4, 100.0});
  const auto jobs = random_jobs(rng, fabric.num_hosts());

  // A randomly generated fault plan over the busy window, with a tight
  // retry budget so job failures are actually reachable.
  FaultPlanConfig plan;
  plan.host_crash_rate = rng.uniform(0.5, 3.0);
  plan.link_flap_rate = rng.uniform(0.5, 2.0);
  plan.straggler_rate = rng.uniform(0.5, 3.0);
  plan.state_loss_rate = rng.uniform(0.0, 1.0);
  plan.horizon = 4.0;
  plan.mean_downtime = 0.3;
  plan.retry.max_attempts = 3;

  Simulator::Config config;
  config.faults = generate_fault_plan(plan, GetParam() * 7919 + 13,
                                      fabric.num_hosts(),
                                      fabric.topology().link_count());

  // Rotate through every scheduler implementing the fault hooks.
  static const char* kNames[] = {"gurita", "gurita_plus", "aalo", "baraat",
                                 "varys"};
  const auto sched = make_scheduler(kNames[GetParam() % 5]);
  Simulator sim(fabric, *sched, config);
  for (const auto& job : jobs) sim.submit(job);
  const SimResults results = sim.run();

  const SimState& state = sim.state();
  ASSERT_EQ(results.jobs.size(), jobs.size());

  // Job-failure accounting matches between results and state.
  std::size_t failed = 0;
  for (std::size_t j = 0; j < state.job_count(); ++j)
    if (state.job(JobId{j}).failed) ++failed;
  EXPECT_EQ(failed, results.failed_jobs);

  // Per-flow invariants: bytes stay in range, every flow of a surviving
  // job completed in full, and flows of failed jobs are finished,
  // cancelled or never released — nothing is left limping.
  Bytes lost = 0;
  for (std::size_t i = 0; i < state.flow_count(); ++i) {
    const SimFlow& f = state.flow(FlowId{i});
    lost += f.lost_bytes;
    EXPECT_GE(f.remaining, -1e-6);
    EXPECT_LE(f.remaining, f.size + 1e-6);
    if (!state.job(f.job).failed) {
      EXPECT_TRUE(f.finished());
      EXPECT_FALSE(f.cancelled);
      EXPECT_NEAR(f.bytes_sent(), f.size, 1e-2);
    } else {
      EXPECT_TRUE(f.finished() || f.cancelled || !f.started());
    }
  }
  EXPECT_NEAR(lost, results.bytes_lost, 1e-6);
  // Every retry re-entered a previously aborted flow, and only bytes that
  // were lost can have been re-sent.
  EXPECT_LE(results.flow_retries, results.flow_aborts);
  EXPECT_LE(results.bytes_retransmitted, results.bytes_lost + 1e-6);

  // DAG order still holds for the coflows that did release.
  for (std::size_t j = 0; j < state.job_count(); ++j) {
    const SimJob& job = state.job(JobId{j});
    for (std::size_t c = 0; c < job.coflows.size(); ++c) {
      const SimCoflow& coflow = state.coflow(job.coflows[c]);
      if (!coflow.released()) continue;
      for (int d : job.spec.deps[c]) {
        const SimCoflow& dep =
            state.coflow(job.coflows[static_cast<std::size_t>(d)]);
        ASSERT_TRUE(dep.finished());
        EXPECT_GE(coflow.release_time, dep.finish_time - 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisruptionProperties,
                         ::testing::Range<std::uint64_t>(0, 8));

// The determinism contract extended to faults: a faulty replicated sweep —
// trace, metrics and fault counters included — is byte-identical whether
// the replicates run serially or sharded over 2 or 8 workers.
TEST(FaultDeterminism, ByteIdenticalAcrossWorkerCounts) {
  ExperimentConfig config = trace_scenario(StructureKind::kFbTao, 30, 11);
  config.fat_tree_k = 4;
  config.obs.trace = true;
  config.faults.enabled = true;
  config.faults.plan.host_crash_rate = 3.0;
  config.faults.plan.link_flap_rate = 1.0;
  config.faults.plan.straggler_rate = 4.0;
  config.faults.plan.state_loss_rate = 1.0;
  const std::vector<std::string> names = {"gurita", "gurita_plus", "aalo",
                                          "baraat", "varys"};

  const auto fingerprint = [&](int jobs) {
    const ComparisonResult pooled =
        compare_schedulers_seeds(config, names, /*num_seeds=*/4, jobs);
    std::ostringstream os;
    os.precision(17);
    for (const auto& [name, res] : pooled.results) {
      os << name << " " << res.makespan << " " << res.average_jct() << " "
         << res.failed_jobs << " " << res.flow_aborts << " "
         << res.flow_retries << " " << res.bytes_lost << " "
         << res.bytes_retransmitted << " " << res.total_recovery_latency
         << " " << res.events << "\n";
      obs::write_jsonl(os, res.trace, name);
    }
    return os.str();
  };

  const std::string serial = fingerprint(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, fingerprint(2));
  EXPECT_EQ(serial, fingerprint(8));
}

}  // namespace
}  // namespace gurita
