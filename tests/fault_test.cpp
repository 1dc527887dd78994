// Tests for the fault-injection subsystem (fault/ + engine integration):
// retry-policy determinism, plan generation, setup validation, crash /
// flap / straggler semantics, job failure, scheduler state loss and the
// zero-fault byte-identity contract.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "core/gurita.h"
#include "fault/plan.h"
#include "fault/validation.h"
#include "flowsim/simulator.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sched/mcs.h"
#include "sched/pfs.h"
#include "sched/stream.h"
#include "snapshot/codec.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

// k=4 fat-tree with 100 B/s links: hand-computable numbers, 16 hosts.
class FaultFixture : public ::testing::Test {
 protected:
  FaultFixture() : fabric_(FatTree::Config{4, 100.0}) {}
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

FaultEvent host_event(FaultKind kind, Time time, int host) {
  FaultEvent e;
  e.kind = kind;
  e.time = time;
  e.host = host;
  return e;
}

// ---------------------------------------------------------------- retry ---

TEST(RetryPolicy, DelayIsPureAndJitterBounded) {
  RetryPolicy p;
  p.backoff = RetryPolicy::Backoff::kExponential;
  p.base_delay = 0.01;
  p.multiplier = 2.0;
  p.max_delay = 1.0;
  p.jitter = 0.25;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const Time d1 = p.delay(attempt, 42, 7);
    const Time d2 = p.delay(attempt, 42, 7);
    EXPECT_DOUBLE_EQ(d1, d2) << "delay must be a pure function";
    const double base = 0.01 * std::pow(2.0, attempt - 1);
    EXPECT_GE(d1, base);
    EXPECT_LE(d1, base * (1.0 + p.jitter) + 1e-12);
  }
  // Different flows (streams) and seeds jitter independently.
  EXPECT_NE(p.delay(1, 42, 7), p.delay(1, 42, 8));
  EXPECT_NE(p.delay(1, 42, 7), p.delay(1, 43, 7));
}

TEST(RetryPolicy, ExponentialGrowthIsCapped) {
  RetryPolicy p;
  p.backoff = RetryPolicy::Backoff::kExponential;
  p.base_delay = 0.01;
  p.multiplier = 4.0;
  p.max_delay = 0.05;
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.delay(1, 0, 0), 0.01);
  EXPECT_DOUBLE_EQ(p.delay(2, 0, 0), 0.04);
  EXPECT_DOUBLE_EQ(p.delay(3, 0, 0), 0.05);  // capped
  EXPECT_DOUBLE_EQ(p.delay(9, 0, 0), 0.05);
}

TEST(RetryPolicy, FixedBackoffAndAttemptClamp) {
  RetryPolicy p;
  p.backoff = RetryPolicy::Backoff::kFixed;
  p.base_delay = 0.02;
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.delay(5, 1, 2), 0.02);
  // A flow parked before it ever transmitted retries with attempt 0;
  // that clamps to the first-attempt delay instead of underflowing.
  EXPECT_DOUBLE_EQ(p.delay(0, 1, 2), p.delay(1, 1, 2));
}

// ----------------------------------------------------------------- plan ---

TEST(FaultPlanGeneration, DeterministicAndWellPaired) {
  FaultPlanConfig config;
  config.host_crash_rate = 5.0;
  config.link_flap_rate = 3.0;
  config.straggler_rate = 4.0;
  config.state_loss_rate = 1.0;
  config.horizon = 2.0;

  const FaultPlan a = generate_fault_plan(config, 99, 16, 64);
  const FaultPlan b = generate_fault_plan(config, 99, 16, 64);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].host, b.events[i].host);
  }
  EXPECT_FALSE(a.events.empty());
  EXPECT_EQ(a.seed, 99u);

  // Sorted by time, each down paired with a later up, no double-downs.
  std::map<int, bool> host_down;
  Time prev = 0;
  for (const FaultEvent& e : a.events) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
    if (!is_recovery(e.kind)) {
      EXPECT_LT(e.time, config.horizon);
    }
    if (e.kind == FaultKind::kHostDown) {
      EXPECT_FALSE(host_down[e.host]);
      host_down[e.host] = true;
    } else if (e.kind == FaultKind::kHostUp) {
      EXPECT_TRUE(host_down[e.host]);
      host_down[e.host] = false;
    } else if (e.kind == FaultKind::kStragglerStart) {
      EXPECT_GT(e.factor, 0.0);
      EXPECT_LT(e.factor, 1.0);
    }
  }
  for (const auto& [host, down] : host_down) EXPECT_FALSE(down) << host;

  // A different seed moves the schedule.
  const FaultPlan c = generate_fault_plan(config, 100, 16, 64);
  EXPECT_TRUE(c.events.size() != a.events.size() ||
              c.events[0].time != a.events[0].time);

  // Zero rates compile to the empty plan (the resilience baseline).
  FaultPlanConfig zero;
  EXPECT_TRUE(generate_fault_plan(zero, 99, 16, 64).empty());
}

// ----------------------------------------------------------- validation ---

TEST(FaultValidation, AggregatesEveryIssue) {
  FaultPlan plan;
  plan.events.push_back(host_event(FaultKind::kHostDown, 0.1, 99));  // range
  FaultEvent straggle = host_event(FaultKind::kStragglerStart, 0.2, 1);
  straggle.factor = 1.5;  // not in (0,1)
  plan.events.push_back(straggle);
  plan.events.push_back(host_event(FaultKind::kHostDown, -0.3, 1));  // time
  plan.retry.max_attempts = 0;  // must be >= 1
  try {
    validate_fault_plan(plan, 16, 64);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_GE(e.issues().size(), 4u);
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos);
  }
}

TEST(FaultValidation, PairingDisciplineEnforced) {
  FaultPlan plan;
  plan.events.push_back(host_event(FaultKind::kHostDown, 0.1, 1));
  plan.events.push_back(host_event(FaultKind::kHostDown, 0.2, 1));  // again
  EXPECT_THROW(validate_fault_plan(plan, 16, 64), ConfigError);

  FaultPlan up_only;
  up_only.events.push_back(host_event(FaultKind::kHostUp, 0.1, 1));
  EXPECT_THROW(validate_fault_plan(up_only, 16, 64), ConfigError);

  // A trailing down (never recovered) is legal: permanent failure.
  FaultPlan trailing;
  trailing.events.push_back(host_event(FaultKind::kHostDown, 0.1, 1));
  EXPECT_NO_THROW(validate_fault_plan(trailing, 16, 64));
}

TEST_F(FaultFixture, SimulatorRejectsInvalidPlansAndDisruptions) {
  Simulator::Config bad_plan;
  bad_plan.faults.events.push_back(host_event(FaultKind::kHostDown, 0.1, -5));
  EXPECT_THROW(Simulator(fabric_, pfs_, bad_plan), ConfigError);
}

// ------------------------------------------------------- crash + retry ---

TEST_F(FaultFixture, HostCrashAbortsAndRetries) {
  // 500 B at 100 B/s; dst host crashes at t=1 (400 B still in flight) and
  // recovers at t=2. The flow restarts from byte zero after the backoff.
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();

  EXPECT_EQ(r.flow_aborts, 1u);
  EXPECT_EQ(r.flow_retries, 1u);
  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_NEAR(r.bytes_lost, 100.0, 1e-6);            // 1 s of transmission
  EXPECT_NEAR(r.bytes_retransmitted, 100.0, 1e-6);   // all recovered
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_FALSE(r.jobs[0].failed);
  // Recover at 2.0 + 0.5 backoff, then the full 500 B again -> finish 7.5.
  EXPECT_NEAR(r.jobs[0].finish, 7.5, 1e-9);
  EXPECT_NEAR(r.total_recovery_latency, 1.5, 1e-9);  // parked 1.0..2.5

  const SimFlow& flow = sim.state().flow(FlowId{0});
  EXPECT_TRUE(flow.finished());
  EXPECT_EQ(flow.attempts, 1);
  EXPECT_NEAR(flow.bytes_sent(), 500.0, 1e-6);
}

TEST(FaultRuntime, FailedJobLeavesNoRetryWakeup) {
  // A job that fails while one of its flows waits out a backoff takes that
  // flow's retry entry with it, so the engine never wakes for the dead
  // retry. Job B's long flow keeps the network busy throughout.
  const BigSwitch fabric(BigSwitch::Config{8});
  PfsScheduler pfs;
  Simulator::Config config;
  // Host 0 is down when A arrives, so A's first flow parks at release; the
  // recovery at 0.1 queues it for 0.1 + max_delay = 0.6. Host 2 going down
  // at 0.2 aborts A's second flow, which has no retry budget: A fails.
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 0.0, 0));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 0.1, 0));
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 0.2, 2));
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 1.0;
  config.faults.retry.max_delay = 0.5;
  config.faults.retry.jitter = 0.0;
  config.faults.retry.max_attempts = 1;

  Simulator sim(fabric, pfs, config);
  sim.submit(single_flow_job(1e12, 4, 5, 0.0));  // B
  JobSpec a = single_flow_job(1e12, 0, 1, 0.05);
  a.coflows[0].flows.push_back(FlowSpec{2, 3, 1e12});
  sim.submit(a);

  // Events at 0 (B arrives, host 0 down), 0.05, 0.1 and 0.2; the next one
  // is B's finish, far past the bound.
  EXPECT_TRUE(sim.run_to(2.0));
  EXPECT_EQ(sim.now(), 0.2);
  EXPECT_EQ(sim.partial_results().events, 4u);
  EXPECT_EQ(sim.partial_results().failed_jobs, 1u);

  const SimResults r = sim.run();
  EXPECT_EQ(r.flow_retries, 0u);
  EXPECT_FALSE(r.jobs[0].failed);
  EXPECT_TRUE(r.jobs[1].failed);
  EXPECT_EQ(r.jobs[1].finish, 0.2);
}

TEST_F(FaultFixture, PermanentCrashFailsTheJobInsteadOfHanging) {
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  // No recovery, ever: the run must terminate with the job failed.
  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  sim.submit(single_flow_job(200.0, 4, 5));  // unaffected bystander
  const SimResults r = sim.run();

  EXPECT_EQ(r.failed_jobs, 1u);
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_TRUE(r.jobs[0].failed);
  EXPECT_FALSE(r.jobs[1].failed);
  // Failed jobs are excluded from JCT statistics.
  EXPECT_NEAR(r.average_jct(), 2.0, 1e-9);
  EXPECT_TRUE(sim.state().flow(FlowId{0}).cancelled);
}

TEST_F(FaultFixture, ExhaustedAttemptsFailTheJob) {
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  config.faults.retry.max_attempts = 1;  // the first abort is fatal
  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();

  EXPECT_EQ(r.flow_aborts, 1u);
  EXPECT_EQ(r.flow_retries, 0u);
  EXPECT_EQ(r.failed_jobs, 1u);
  EXPECT_TRUE(r.jobs[0].failed);
}

TEST_F(FaultFixture, ParkAtReleaseConsumesNoAttempt) {
  // Host 1 is down before the job arrives; the flow parks at release
  // (blocked, nothing in flight) and enters once the host recovers.
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 0.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;
  config.faults.retry.max_attempts = 1;  // would fail if release counted

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0, 0, 1, /*arrival=*/0.5));
  const SimResults r = sim.run();

  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_EQ(r.flow_aborts, 1u);  // the park-at-release abort
  EXPECT_EQ(r.flow_retries, 1u);
  EXPECT_NEAR(r.bytes_lost, 0.0, 1e-9);  // nothing was in flight
  EXPECT_EQ(sim.state().flow(FlowId{0}).attempts, 0);
  // Recover at 2.0 + 0.5 backoff + 5 s transmission.
  EXPECT_NEAR(r.jobs[0].finish, 7.5, 1e-9);
}

TEST_F(FaultFixture, LinkFlapAbortsCrossingFlows) {
  // Kill the src host's uplink instead of a host: same abort/retry cycle.
  const LinkId uplink{0};  // host 0 -> its edge switch (fattree.h's ids)
  FaultEvent down;
  down.kind = FaultKind::kLinkDown;
  down.time = 1.0;
  down.link = uplink;
  FaultEvent up;
  up.kind = FaultKind::kLinkUp;
  up.time = 2.0;
  up.link = uplink;
  Simulator::Config config;
  config.faults.events = {down, up};
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();
  EXPECT_EQ(r.flow_aborts, 1u);
  EXPECT_EQ(r.flow_retries, 1u);
  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_NEAR(r.jobs[0].finish, 7.5, 1e-9);
}

TEST_F(FaultFixture, StragglerSlowsWithoutAborting) {
  // Factor 0.2 on the dst host for t in [0, 5): the 500 B flow drains at
  // 20 B/s for 5 s (100 B), then at full rate -> finish at 9.
  FaultEvent start = host_event(FaultKind::kStragglerStart, 0.0, 1);
  start.factor = 0.2;
  FaultEvent end = host_event(FaultKind::kStragglerEnd, 5.0, 1);
  Simulator::Config config;
  config.faults.events = {start, end};

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();
  EXPECT_EQ(r.flow_aborts, 0u);
  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_NEAR(r.jobs[0].finish, 9.0, 1e-9);
  EXPECT_NEAR(r.bytes_lost, 0.0, 1e-9);
}

// ------------------------------------------------------ scheduler reset ---

// Two parallel 4-flow coflows of 5000 B per flow: at most 100 B/s each,
// so both stay live past t = 50 while any demotion ladder acts.
JobSpec two_fat_coflows() {
  JobSpec job;
  CoflowSpec c1, c2;
  for (int f = 0; f < 4; ++f) {
    c1.flows.push_back(FlowSpec{f, 8 + f, 5000.0});
    c2.flows.push_back(FlowSpec{4 + f, 12 + f, 5000.0});
  }
  job.coflows = {c1, c2};
  job.deps = {{}, {}};
  return job;
}

FaultEvent state_loss(Time time) {
  FaultEvent loss;
  loss.kind = FaultKind::kSchedulerStateLoss;
  loss.time = time;
  return loss;
}

/// The tiers job 0's coflows hold at a run_to() pause.
std::vector<Tier> coflow_tiers(const Simulator& sim) {
  std::vector<Tier> tiers;
  for (CoflowId cid : sim.state().job(JobId{0}).coflows)
    tiers.push_back(sim.state().coflow(cid).tier);
  return tiers;
}

TEST_F(FaultFixture, SchedulerStateLossResetsGuritaQueues) {
  // Two fat coflows long enough for Gurita's HR rounds to demote them,
  // then a state loss: the trace must show kFaultReset re-admissions and
  // the run must still complete.
  GuritaScheduler gurita;
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  Simulator::Config config;
  config.trace = &recorder;
  config.faults.events = {state_loss(20.0)};

  Simulator sim(fabric_, gurita, config);
  sim.submit(two_fat_coflows());
  const SimResults r = sim.run();
  EXPECT_EQ(r.failed_jobs, 0u);

  int fault_records = 0, reset_records = 0;
  for (const obs::TraceRecord& rec : recorder.records()) {
    if (rec.kind == obs::TraceEventKind::kFault) ++fault_records;
    if (rec.kind == obs::TraceEventKind::kQueueChange &&
        rec.i2 ==
            static_cast<std::int32_t>(obs::QueueChangeCause::kFaultReset)) {
      ++reset_records;
      EXPECT_EQ(rec.i1, 0) << "state loss must re-admit at the top queue";
    }
  }
  EXPECT_EQ(fault_records, 1);
  EXPECT_EQ(reset_records, 2) << "both live coflows re-admitted";
}

// Runs two_fat_coflows() with a state loss at t = 20.25, which falls
// between δ ticks at 1 s spacing: both coflows hold a demoted tier just
// before it and queue 0 after it, until the tick at t = 21.
void expect_state_loss_resets_tiers(const Fabric& fabric,
                                    Scheduler& scheduler) {
  Simulator::Config config;
  config.faults.events = {state_loss(20.25)};
  Simulator sim(fabric, scheduler, config);
  sim.submit(two_fat_coflows());
  ASSERT_TRUE(sim.run_to(20.0));
  for (Tier tier : coflow_tiers(sim)) EXPECT_GT(tier, 0) << "demoted first";
  ASSERT_TRUE(sim.run_to(20.5));
  for (Tier tier : coflow_tiers(sim))
    EXPECT_EQ(tier, 0) << "state loss must re-admit at the top queue";
  EXPECT_EQ(sim.run().failed_jobs, 0u);
}

TEST_F(FaultFixture, SchedulerStateLossResetsMcsQueues) {
  // width × ℓ̈_max crosses a 1000 B first threshold within seconds.
  McsScheduler::Config config;
  config.first_threshold = 1000.0;
  config.update_interval = 1.0;
  McsScheduler mcs(config);
  expect_state_loss_resets_tiers(fabric_, mcs);
}

TEST_F(FaultFixture, McsFailedJobLeavesNoQueueRow) {
  // Job 0's only flow aborts at t = 1 with no retry budget, so the job
  // fails; job 1 keeps running. MCS's checkpointed queue table must then
  // hold job 1's coflow only.
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  config.faults.retry.max_attempts = 1;
  McsScheduler mcs;
  Simulator sim(fabric_, mcs, config);
  sim.submit(single_flow_job(500.0));         // job 0, coflow 0
  sim.submit(single_flow_job(5000.0, 4, 5));  // job 1, coflow 1
  ASSERT_TRUE(sim.run_to(3.0));
  ASSERT_EQ(sim.partial_results().failed_jobs, 1u);

  snapshot::Writer w;
  mcs.save_state(w);
  snapshot::Reader r(w.buffer());
  std::vector<std::uint64_t> keys(r.u64());
  for (std::uint64_t& key : keys) {
    key = r.u64();
    (void)r.i32();  // queue
  }
  EXPECT_EQ(keys, std::vector<std::uint64_t>{1});
  EXPECT_EQ(sim.run().failed_jobs, 1u);
}

TEST_F(FaultFixture, SchedulerStateLossResetsStreamQueues) {
  // The job's total bytes sent cross a 1000 B first threshold within
  // seconds; both coflows inherit the job's queue.
  StreamScheduler::Config config;
  config.first_threshold = 1000.0;
  config.update_interval = 1.0;
  StreamScheduler stream(config);
  expect_state_loss_resets_tiers(fabric_, stream);
}

// ----------------------------------------------------- counters + trace ---

TEST_F(FaultFixture, CountersExportAndTraceKindsRoundTrip) {
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  config.trace = &recorder;

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();

  obs::Registry registry;
  r.export_counters(registry);
  EXPECT_EQ(registry.counter("fault.flow_aborts"), 1u);
  EXPECT_EQ(registry.counter("fault.flow_retries"), 1u);
  EXPECT_EQ(registry.counter("fault.failed_jobs"), 0u);

  // The JSONL export of the fault kinds parses back identically.
  const std::vector<obs::TraceRecord> records = recorder.records();
  std::stringstream jsonl;
  obs::write_jsonl(jsonl, records, "fault-run");
  const auto back = obs::read_jsonl(jsonl);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].records, records);

  int aborts = 0, retries = 0, faults = 0;
  for (const obs::TraceRecord& rec : records) {
    if (rec.kind == obs::TraceEventKind::kFlowAbort) ++aborts;
    if (rec.kind == obs::TraceEventKind::kFlowRetry) ++retries;
    if (rec.kind == obs::TraceEventKind::kFault) ++faults;
  }
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(retries, 1);
  EXPECT_EQ(faults, 2);
}

// ------------------------------------------------- zero-fault identity ---

TEST_F(FaultFixture, EmptyPlanIsByteIdenticalToNoFaultSupport) {
  const auto run_trace = [&](bool with_empty_plan) {
    obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
    Simulator::Config config;
    config.trace = &recorder;
    if (with_empty_plan) {
      // A generated zero-rate plan: exactly what bench_resilience's
      // baseline factor produces.
      config.faults = generate_fault_plan(FaultPlanConfig{}, 7,
                                          fabric_.num_hosts(),
                                          fabric_.topology().link_count());
      EXPECT_TRUE(config.faults.empty());
    }
    PfsScheduler pfs;
    Simulator sim(fabric_, pfs, config);
    sim.submit(single_flow_job(500.0));
    sim.submit(single_flow_job(300.0, 2, 9, 0.25));
    const SimResults r = sim.run();
    std::ostringstream os;
    os.precision(17);
    os << r.makespan << " " << r.average_jct() << " " << r.events << "\n";
    obs::write_jsonl(os, recorder.records());
    return os.str();
  };
  EXPECT_EQ(run_trace(false), run_trace(true));
}

}  // namespace
}  // namespace gurita
