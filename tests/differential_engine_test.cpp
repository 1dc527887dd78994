// Differential fuzz harness: the event-calendar engine vs the reference
// oracle (tests/oracle_sim.h) on randomized workloads.
//
// Every trace draws a random fabric (big-switch or fat-tree), a random
// trace shape (fan-out, skew, arrival pattern) and a random scheduler from
// the registry, then replays the identical job specs through both engines
// with fresh scheduler instances and asserts the runs are
// indistinguishable: same event count, same rate recomputations,
// bit-identical makespan, per-job and per-coflow times, and per-flow
// start/finish trajectories. Any divergence indicts the calendar machinery
// (in-place re-keying, erasure, pop ordering), since that is the only part
// the oracle leaves out. Failures print the trace seed for standalone
// reproduction.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/registry.h"
#include "flowsim/simulator.h"
#include "oracle_sim.h"
#include "same_results.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

/// Everything one differential trial needs, drawn from a single seed.
struct Trial {
  std::unique_ptr<Fabric> fabric;
  std::vector<JobSpec> jobs;
  std::string scheduler;
};

Trial draw_trial(std::uint64_t seed) {
  Rng rng(seed);
  Trial trial;

  if (rng.next_double() < 0.5) {
    BigSwitch::Config bs;
    bs.num_hosts = static_cast<int>(rng.uniform_int(8, 32));
    trial.fabric = std::make_unique<BigSwitch>(bs);
  } else {
    FatTree::Config ft;
    ft.k = 4;  // 16 hosts; plenty of path diversity at fuzz scale
    ft.ecmp_salt = rng.next_u64();
    trial.fabric = std::make_unique<FatTree>(ft);
  }

  TraceConfig trace;
  trace.num_jobs = static_cast<int>(rng.uniform_int(3, 10));
  trace.num_hosts = trial.fabric->num_hosts();
  trace.structure = static_cast<StructureKind>(rng.uniform_int(0, 2));
  trace.arrivals = rng.next_double() < 0.5 ? ArrivalPattern::kPoisson
                                           : ArrivalPattern::kBursty;
  trace.mean_interarrival = rng.uniform(1.0, 50.0) * kMillisecond;
  trace.burst_size = static_cast<int>(rng.uniform_int(2, 6));
  trace.max_width = static_cast<int>(rng.uniform_int(2, 16));
  trace.width_pareto_alpha = rng.uniform(0.8, 2.0);
  trace.flow_skew_sigma = rng.uniform(0.2, 1.5);
  trace.stage_skew_sigma = rng.uniform(0.5, 2.0);
  trace.seed = rng.next_u64();
  trial.jobs = generate_trace(trace);

  const std::vector<std::string>& names = scheduler_names();
  trial.scheduler = names[rng.uniform_int(0, names.size() - 1)];
  return trial;
}

void run_differential_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
  const Trial trial = draw_trial(seed);

  // Fresh scheduler per engine: schedulers are stateful and attach() to
  // exactly one run's SimState.
  std::unique_ptr<Scheduler> fast_sched = make_scheduler(trial.scheduler);
  std::unique_ptr<Scheduler> oracle_sched = make_scheduler(trial.scheduler);

  Simulator fast(*trial.fabric, *fast_sched);
  OracleSimulator oracle(*trial.fabric, *oracle_sched);
  for (const JobSpec& job : trial.jobs) {
    fast.submit(job);
    oracle.submit(job);
  }

  const SimResults fast_results = fast.run();
  const SimResults oracle_results = oracle.run();
  // flow_touches counts the calendar's bookkeeping, which the oracle has
  // none of.
  expect_same_results(fast_results, oracle_results, /*flow_touches=*/false);
  expect_same_flows(fast.state(), oracle.state());
}

// The main gate: 200 randomized traces through both engines. Trial i is
// fully determined by its seed, so a failure reproduces standalone.
TEST(DifferentialEngineTest, FuzzFastEngineAgainstOracle) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_differential_trial(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential fuzz diverged at trace seed " << seed
             << "; rerun run_differential_trial(" << seed << ") to debug";
    }
  }
}

// Targeted worst case: everything at once — bursty arrivals, wide mixed
// DAGs on a fat-tree, a tick-driven scheduler.
TEST(DifferentialEngineTest, KitchenSinkScenarioMatchesOracle) {
  FatTree::Config ft;
  ft.k = 4;
  const FatTree fabric(ft);

  TraceConfig trace;
  trace.num_jobs = 12;
  trace.num_hosts = fabric.num_hosts();
  trace.structure = StructureKind::kMixed;
  trace.arrivals = ArrivalPattern::kBursty;
  trace.burst_size = 4;
  trace.max_width = 12;
  trace.seed = 1234;
  const std::vector<JobSpec> jobs = generate_trace(trace);

  for (const std::string& name : {std::string("gurita"), std::string("aalo"),
                                  std::string("pfs")}) {
    SCOPED_TRACE("scheduler " + name);
    std::unique_ptr<Scheduler> fast_sched = make_scheduler(name);
    std::unique_ptr<Scheduler> oracle_sched = make_scheduler(name);
    Simulator fast(fabric, *fast_sched);
    OracleSimulator oracle(fabric, *oracle_sched);
    for (const JobSpec& job : jobs) {
      fast.submit(job);
      oracle.submit(job);
    }
    const SimResults fast_results = fast.run();
    const SimResults oracle_results = oracle.run();
    expect_same_results(fast_results, oracle_results, /*flow_touches=*/false);
    expect_same_flows(fast.state(), oracle.state());
  }
}

}  // namespace
}  // namespace gurita
