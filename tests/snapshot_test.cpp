// Tests for the checkpoint/restore subsystem (src/snapshot/): the byte
// codec, the snapshot header, and the headline invariant — run to T,
// checkpoint, restore into a fresh simulator, finish, and the results
// (JCTs, counters, link stats, traces) are byte-identical to an
// uninterrupted run. Covered per scheduler, with and without a fault plan,
// at targeted pause points (mid-fault-park, mid-retry-backoff, mid-stage
// release), under randomized fuzz, against the reference oracle, and
// through the experiment runner's halt/resume path at 1/2/8 workers
// (the SnapshotDeterminism suite, part of the TSan gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/adaptive_thresholds.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "fault/plan.h"
#include "flowsim/simulator.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "oracle_sim.h"
#include "same_results.h"
#include "snapshot/snapshot.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

// ------------------------------------------------------------------ codec

TEST(SnapshotCodec, PrimitivesRoundTripBitExactly) {
  snapshot::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(std::numeric_limits<double>::infinity());
  w.boolean(true);
  w.boolean(false);
  w.str("hello snapshot");

  snapshot::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  const double neg_zero = r.f64();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(neg_zero),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_TRUE(r.done());
}

TEST(SnapshotCodec, TruncatedBufferThrows) {
  snapshot::Writer w;
  w.u64(1);
  snapshot::Reader r(std::string_view(w.buffer()).substr(0, 4));
  EXPECT_THROW(r.u64(), snapshot::SnapshotError);

  // A length field near 2^64 must not wrap the bounds check: a buffer that
  // holds only the length has nothing left to satisfy it.
  snapshot::Writer huge;
  huge.u64(~std::uint64_t{0});
  {
    snapshot::Reader str_reader(huge.buffer());
    EXPECT_THROW((void)str_reader.str(), snapshot::SnapshotError);
  }
  {
    snapshot::Reader section_reader(huge.buffer());
    EXPECT_THROW((void)section_reader.begin_section(),
                 snapshot::SnapshotError);
  }
}

TEST(SnapshotCodec, SectionVerifiesExactConsumption) {
  snapshot::Writer w;
  const std::size_t token = w.begin_section();
  w.u32(7);
  w.u32(9);
  w.end_section(token);

  {
    snapshot::Reader r(w.buffer());
    const std::size_t end = r.begin_section();
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_EQ(r.u32(), 9u);
    r.end_section(end);  // consumed exactly — no throw
    EXPECT_TRUE(r.done());
  }
  {
    snapshot::Reader r(w.buffer());
    const std::size_t end = r.begin_section();
    EXPECT_EQ(r.u32(), 7u);  // under-consume
    EXPECT_THROW(r.end_section(end), snapshot::SnapshotError);
  }
  {
    // A reader may skip a section it does not understand.
    snapshot::Reader r(w.buffer());
    r.skip_to(r.begin_section());
    EXPECT_TRUE(r.done());
  }
}

TEST(SnapshotHeader, RoundTripsAndRejectsCorruption) {
  snapshot::Writer w;
  snapshot::write_header(w, snapshot::PayloadKind::kSimulatorState);
  {
    snapshot::Reader r(w.buffer());
    EXPECT_EQ(snapshot::read_header(r),
              snapshot::PayloadKind::kSimulatorState);
  }
  {
    std::string bad = w.buffer();
    bad[0] = 'X';  // wrong magic
    snapshot::Reader r(bad);
    EXPECT_THROW(snapshot::read_header(r), snapshot::SnapshotError);
  }
  // The previous layout and a future one are both refused, by version.
  for (const std::uint32_t version :
       {snapshot::kFormatVersion - 1, snapshot::kFormatVersion + 1}) {
    snapshot::Writer v;
    v.u32(snapshot::kMagic);
    v.u32(version);
    v.u8(1);
    snapshot::Reader r(v.buffer());
    try {
      (void)snapshot::read_header(r);
      ADD_FAILURE() << "version " << version << " was accepted";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("format version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  {
    // Kind 2 marked the retired results cache: a leftover one is refused.
    std::string leftover = w.buffer();
    leftover[8] = 2;
    snapshot::Reader r(leftover);
    EXPECT_THROW(snapshot::read_header(r), snapshot::SnapshotError);
  }
}

TEST(SnapshotHeader, ServiceStatePayloadKindRoundTrips) {
  snapshot::Writer w;
  snapshot::write_header(w, snapshot::PayloadKind::kServiceState);
  snapshot::Reader r(w.buffer());
  EXPECT_EQ(snapshot::read_header(r), snapshot::PayloadKind::kServiceState);
}

// The kServiceState payload embeds job specs verbatim — an open-horizon
// resume cannot rebuild the admitted population from the original inputs.
TEST(SnapshotCodec, JobSpecRoundTripsBitExactly) {
  JobSpec spec;
  spec.arrival_time = 1.25 + 1e-16;
  spec.deadline = 9.5;
  spec.coflows = {CoflowSpec{{FlowSpec{0, 5, 1048576.0},
                              FlowSpec{3, 4, 524288.5}}},
                  CoflowSpec{{FlowSpec{8, 9, 7.0}}}};
  spec.deps = {{}, {0}};

  snapshot::Writer w;
  snapshot::write_job_spec(w, spec);
  snapshot::Reader r(w.buffer());
  const JobSpec got = snapshot::read_job_spec(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.arrival_time),
            std::bit_cast<std::uint64_t>(spec.arrival_time));
  EXPECT_EQ(got.deadline, spec.deadline);
  EXPECT_EQ(got.deps, spec.deps);
  ASSERT_EQ(got.coflows.size(), spec.coflows.size());
  for (std::size_t c = 0; c < spec.coflows.size(); ++c) {
    ASSERT_EQ(got.coflows[c].flows.size(), spec.coflows[c].flows.size());
    for (std::size_t f = 0; f < spec.coflows[c].flows.size(); ++f) {
      EXPECT_EQ(got.coflows[c].flows[f].src_host,
                spec.coflows[c].flows[f].src_host);
      EXPECT_EQ(got.coflows[c].flows[f].dst_host,
                spec.coflows[c].flows[f].dst_host);
      EXPECT_EQ(got.coflows[c].flows[f].size, spec.coflows[c].flows[f].size);
    }
  }
}

// Count fields are checked against the bytes left before anything is
// sized from them: a hostile count is a SnapshotError, never a
// std::length_error or a multi-terabyte allocation.
TEST(SnapshotCodec, HostileCountsThrowBeforeAllocating) {
  {
    snapshot::Writer w;
    w.u64(2);
    w.u64(0);
    w.u64(0);
    snapshot::Reader fits(w.buffer());
    EXPECT_EQ(fits.count(8), 2u);
    snapshot::Reader too_many(w.buffer());
    EXPECT_THROW((void)too_many.count(9), snapshot::SnapshotError);
  }
  for (const std::uint64_t n_entries :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 40}) {
    SCOPED_TRACE("n_entries " + std::to_string(n_entries));
    snapshot::Writer w;
    w.u64(n_entries);
    w.u64(0);  // one key, no value
    snapshot::Reader r(w.buffer());
    std::map<JobId, int> table;
    EXPECT_THROW(snapshot::read_table(r, "probe", ~std::uint64_t{0}, table,
                                      [&](JobId) -> int {
                                        ADD_FAILURE() << "entry read";
                                        return 0;
                                      }),
                 snapshot::SnapshotError);
  }
  snapshot::Writer spec;
  spec.f64(1.0);  // arrival
  spec.f64(0.0);  // deadline
  spec.u64(std::uint64_t{1} << 40);  // coflow count
  snapshot::Reader r(spec.buffer());
  EXPECT_THROW((void)snapshot::read_job_spec(r), snapshot::SnapshotError);
}

TEST(SnapshotFile, AtomicWriteAndReadBack) {
  const std::string dir =
      ::testing::TempDir() + "gurita_snapshot_file_test";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/probe.ckpt";
  snapshot::write_snapshot_file(path, "payload bytes");
  EXPECT_EQ(snapshot::read_snapshot_file(path), "payload bytes");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_THROW((void)snapshot::read_snapshot_file(dir + "/absent.ckpt"),
               snapshot::SnapshotError);
}

// -------------------------------------------------- round-trip harness ---

struct Scenario {
  const Fabric& fabric;
  std::string scheduler;
  const std::vector<JobSpec>& jobs;
  Simulator::Config sim_config;  ///< trace field is overwritten per run
  bool with_trace = true;
};

SimResults run_uninterrupted(const Scenario& s) {
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  Simulator::Config config = s.sim_config;
  if (s.with_trace) config.trace = &recorder;
  const std::unique_ptr<Scheduler> sched = make_scheduler(s.scheduler);
  Simulator sim(s.fabric, *sched, config);
  for (const JobSpec& job : s.jobs) sim.submit(job);
  SimResults results = sim.run();
  if (s.with_trace) results.trace = recorder.take();
  return results;
}

/// Runs to `split`, checkpoints, destroys the simulator, rebuilds a fresh
/// one from the same inputs (as a restarted process would), restores and
/// finishes. The snapshot string is the only state that crosses over.
SimResults run_split(const Scenario& s, Time split) {
  std::string bytes;
  {
    obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
    Simulator::Config config = s.sim_config;
    if (s.with_trace) config.trace = &recorder;
    const std::unique_ptr<Scheduler> sched = make_scheduler(s.scheduler);
    Simulator sim(s.fabric, *sched, config);
    for (const JobSpec& job : s.jobs) sim.submit(job);
    (void)sim.run_to(split);
    snapshot::Writer w;
    sim.checkpoint(w);
    bytes = w.take();
  }
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  Simulator::Config config = s.sim_config;
  if (s.with_trace) config.trace = &recorder;
  const std::unique_ptr<Scheduler> sched = make_scheduler(s.scheduler);
  Simulator sim(s.fabric, *sched, config);
  for (const JobSpec& job : s.jobs) sim.submit(job);
  snapshot::Reader r(bytes);
  sim.restore(r);
  SimResults results = sim.run();
  if (s.with_trace) results.trace = recorder.take();
  return results;
}

/// The headline invariant at a set of pause points.
void expect_split_invariant(const Scenario& s, const std::vector<Time>& splits,
                            const SimResults& reference) {
  for (const Time split : splits) {
    SCOPED_TRACE("scheduler " + s.scheduler + ", split at " +
                 std::to_string(split));
    const SimResults resumed = run_split(s, split);
    expect_same_results(resumed, reference);
    EXPECT_EQ(resumed.makespan, reference.makespan);
    EXPECT_EQ(resumed.events, reference.events);
  }
}

std::vector<JobSpec> small_trace(const Fabric& fabric, std::uint64_t seed,
                                 int num_jobs = 8) {
  TraceConfig trace;
  trace.num_jobs = num_jobs;
  trace.num_hosts = fabric.num_hosts();
  trace.structure = StructureKind::kMixed;
  trace.seed = seed;
  return generate_trace(trace);
}

// --------------------------------------------- per-scheduler round trip ---

TEST(SnapshotRoundTrip, EverySchedulerByteIdentical) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 11);
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/true};
    const SimResults reference = run_uninterrupted(s);
    ASSERT_GT(reference.makespan, 0.0);
    expect_split_invariant(s,
                           {0.0, 0.25 * reference.makespan,
                            0.5 * reference.makespan,
                            0.75 * reference.makespan,
                            2.0 * reference.makespan},
                           reference);
  }
}

TEST(SnapshotRoundTrip, EverySchedulerWithFaultPlanByteIdentical) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 17);
  FaultPlanConfig plan;
  plan.host_crash_rate = 6.0;
  plan.link_flap_rate = 4.0;
  plan.straggler_rate = 4.0;
  plan.state_loss_rate = 2.0;
  plan.horizon = 0.5;
  plan.mean_downtime = 0.05;
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/true};
    s.sim_config.faults = generate_fault_plan(
        plan, 77, fabric.num_hosts(), fabric.topology().link_count());
    const SimResults reference = run_uninterrupted(s);
    expect_split_invariant(s,
                           {0.1 * reference.makespan, 0.5 * reference.makespan,
                            0.9 * reference.makespan},
                           reference);
  }
}

// ------------------------------------------------- targeted pause points ---

// k=4 fat-tree at 100 B/s: a 1000 B flow takes 10 s uncontended, so the
// fault windows below are easy to aim at.
JobSpec single_flow_job(Bytes size, int src, int dst, Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

Simulator::Config park_retry_config() {
  Simulator::Config config;
  FaultEvent down;
  down.kind = FaultKind::kHostDown;
  down.time = 2.0;
  down.host = 1;
  FaultEvent up;
  up.kind = FaultKind::kHostUp;
  up.time = 6.0;
  up.host = 1;
  config.faults.events = {down, up};
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;
  config.faults.seed = 3;
  return config;
}

// Checkpoint while the aborted flow sits in the parked set (host still
// down), and while its retry entry sits in the backoff heap (host back up,
// restart pending) — the two fault-runtime structures the snapshot must
// carry. Every scheduler goes through both.
TEST(SnapshotRoundTrip, MidFaultParkAndMidRetryBackoff) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  const std::vector<JobSpec> jobs = {single_flow_job(1000, 0, 1)};
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, park_retry_config(), /*with_trace=*/true};
    const SimResults reference = run_uninterrupted(s);
    // The scenario really does abort and retry.
    EXPECT_GE(reference.flow_aborts, 1u) << name;
    EXPECT_GE(reference.flow_retries, 1u) << name;
    // run_to(T) pauses before the event at T: just before the crash, just
    // before the recovery (flow parked), inside the backoff window (retry
    // scheduled, not yet fired), and after the restart.
    expect_split_invariant(s, {2.0, 6.0, 6.25, 8.0}, reference);
  }
}

// Checkpoint between the stages of a dependent job: stage 0's coflow has
// finished, stage 1's was released from the dependency tracker mid-run.
TEST(SnapshotRoundTrip, MidStageRelease) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  JobSpec job;
  job.arrival_time = 0;
  CoflowSpec first;
  first.flows.push_back(FlowSpec{0, 1, 1000});
  CoflowSpec second;
  second.flows.push_back(FlowSpec{2, 3, 1000});
  job.coflows = {first, second};
  job.deps = {{}, {0}};  // stage 1 waits for stage 0 (~10 s each)
  const std::vector<JobSpec> jobs = {job};
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/true};
    const SimResults reference = run_uninterrupted(s);
    ASSERT_EQ(reference.coflows.size(), 2u);
    // Mid stage 0, at the release boundary, and mid stage 1.
    expect_split_invariant(s, {5.0, 10.0, 15.0}, reference);
  }
}

// Checkpoint between two allocator-dirtying events. The snapshot codec
// never serializes the incremental allocator's scratch state (per-link
// membership lists, dirty frontier) — restore rebuilds it from
// the active set alone, and the rebuilt bookkeeping must finish the run
// byte-identically. Flow B's arrival right after the split is the probe:
// it splits A's bottleneck, so a stale or missing membership list would
// misallocate immediately. A disjoint component rides along to catch
// over-invalidation, and the run must agree with the reference oracle,
// which re-solves every allocation from scratch.
TEST(SnapshotDeterminism, MidConvergenceSplitRebuildsAllocatorState) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  std::vector<JobSpec> jobs;
  jobs.push_back(single_flow_job(1000, 0, 1, 0.0));  // A: alone until t=4
  jobs.push_back(single_flow_job(1000, 0, 1, 4.0));  // B: splits A's links
  jobs.push_back(single_flow_job(500, 8, 9, 1.0));   // disjoint component
  Scenario s{fabric, "gurita", jobs, {}, /*with_trace=*/true};
  const SimResults reference = run_uninterrupted(s);
  // Between A's and B's arrivals (2.0), at B's arrival instant (4.0),
  // and mid-drain of the post-split rates (6.5).
  expect_split_invariant(s, {2.0, 4.0, 6.5}, reference);

  const std::unique_ptr<Scheduler> oracle_sched = make_scheduler("gurita");
  OracleSimulator oracle(fabric, *oracle_sched, s.sim_config);
  for (const JobSpec& job : jobs) oracle.submit(job);
  const SimResults oracle_results = oracle.run();
  EXPECT_EQ(reference.makespan, oracle_results.makespan);
  EXPECT_EQ(reference.events, oracle_results.events);
  EXPECT_EQ(reference.rate_recomputations, oracle_results.rate_recomputations);
  ASSERT_EQ(reference.jobs.size(), oracle_results.jobs.size());
  for (std::size_t i = 0; i < reference.jobs.size(); ++i)
    EXPECT_EQ(reference.jobs[i].finish, oracle_results.jobs[i].finish)
        << "job " << i;
}

// ------------------------------------------------------- sampler cursor ---

/// One timeline run: recorder + interval sampler at `every`, optionally
/// checkpointed at `split` and finished by a freshly built simulator (the
/// sampler object is rebuilt too — only the serialized cursor crosses).
SimResults run_timeline(const Fabric& fabric, const std::vector<JobSpec>& jobs,
                        double every, const Time* split) {
  std::string bytes;
  if (split != nullptr) {
    obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
    obs::IntervalSampler sampler(obs::IntervalSampler::Config{every});
    Simulator::Config config;
    config.trace = &recorder;
    config.sampler = &sampler;
    const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
    Simulator sim(fabric, *sched, config);
    for (const JobSpec& job : jobs) sim.submit(job);
    (void)sim.run_to(*split);
    snapshot::Writer w;
    sim.checkpoint(w);
    bytes = w.take();
  }
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  obs::IntervalSampler sampler(obs::IntervalSampler::Config{every});
  Simulator::Config config;
  config.trace = &recorder;
  config.sampler = &sampler;
  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched, config);
  for (const JobSpec& job : jobs) sim.submit(job);
  if (split != nullptr) {
    snapshot::Reader r(bytes);
    sim.restore(r);
  }
  SimResults results = sim.run();
  results.trace = recorder.take();
  return results;
}

// The tentpole claim for the interval sampler (DESIGN.md §14): the sample
// timeline of a run split across a checkpoint/restore is bitwise identical
// to the uninterrupted run's — grid boundaries come from the serialized
// cursor by multiplication, never from re-accumulation, and the poll points
// (every processed event) are the same on both sides of the split.
TEST(SnapshotDeterminism, SamplerTimelineSurvivesSplitBitwise) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 23);
  const double every = 0.02;
  const SimResults reference =
      run_timeline(fabric, jobs, every, /*split=*/nullptr);

  std::size_t samples = 0;
  for (const obs::TraceRecord& r : reference.trace)
    if (r.kind == obs::TraceEventKind::kSample) ++samples;
  ASSERT_GT(samples, 2u) << "cadence too coarse to put a split between "
                            "samples (makespan "
                         << reference.makespan << ")";

  // Mid-run splits plus a boundary-adjacent one: 0.04 is an exact grid
  // time, so the resumed run must not re-emit that boundary's sample.
  for (const Time split : {0.25 * reference.makespan,
                           0.5 * reference.makespan,
                           0.75 * reference.makespan, 2 * every}) {
    SCOPED_TRACE("split at " + std::to_string(split));
    const SimResults resumed = run_timeline(fabric, jobs, every, &split);
    expect_same_results(resumed, reference);
  }
}

// ------------------------------------------------------------- rejection ---

// The sampler's configuration is part of the snapshot fingerprint: a
// resumed run with a different cadence (or no sampler at all) would emit a
// different timeline, so restore refuses it up front.
TEST(SnapshotRestore, RejectsMismatchedSampler) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 23);

  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  obs::IntervalSampler sampler(obs::IntervalSampler::Config{0.05});
  Simulator::Config config;
  config.trace = &recorder;
  config.sampler = &sampler;
  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched, config);
  for (const JobSpec& job : jobs) sim.submit(job);
  (void)sim.run_to(0.1);
  snapshot::Writer w;
  sim.checkpoint(w);
  const std::string bytes = w.take();

  const auto expect_rejected = [&](Simulator::Config bad_config) {
    obs::TraceRecorder rec2(obs::TraceRecorder::kAllKinds);
    bad_config.trace = &rec2;
    const std::unique_ptr<Scheduler> sched2 = make_scheduler("gurita");
    Simulator other(fabric, *sched2, bad_config);
    for (const JobSpec& job : jobs) other.submit(job);
    snapshot::Reader r(bytes);
    EXPECT_THROW(other.restore(r), snapshot::SnapshotError);
  };

  // No sampler attached on the restoring side.
  expect_rejected(Simulator::Config{});
  // Different cadence.
  obs::IntervalSampler coarse(obs::IntervalSampler::Config{0.1});
  Simulator::Config coarse_config;
  coarse_config.sampler = &coarse;
  expect_rejected(coarse_config);
}

TEST(SnapshotRestore, RejectsMismatchedWorkload) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 11);
  Scenario s{fabric, "gurita", jobs, {}, /*with_trace=*/false};

  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched, s.sim_config);
  for (const JobSpec& job : jobs) sim.submit(job);
  (void)sim.run_to(0.0);
  snapshot::Writer w;
  sim.checkpoint(w);
  const std::string bytes = w.take();

  // Different jobs → fingerprint mismatch, rejected before any mutation.
  const std::vector<JobSpec> other_jobs = small_trace(fabric, 12);
  const std::unique_ptr<Scheduler> sched2 = make_scheduler("gurita");
  Simulator other(fabric, *sched2, s.sim_config);
  for (const JobSpec& job : other_jobs) other.submit(job);
  snapshot::Reader r(bytes);
  EXPECT_THROW(other.restore(r), snapshot::SnapshotError);

  // Different scheduler → likewise.
  const std::unique_ptr<Scheduler> sched3 = make_scheduler("aalo");
  Simulator wrong_sched(fabric, *sched3, s.sim_config);
  for (const JobSpec& job : jobs) wrong_sched.submit(job);
  snapshot::Reader r2(bytes);
  EXPECT_THROW(wrong_sched.restore(r2), snapshot::SnapshotError);

  // Truncated snapshot → SnapshotError, not garbage state.
  const std::unique_ptr<Scheduler> sched4 = make_scheduler("gurita");
  Simulator truncated(fabric, *sched4, s.sim_config);
  for (const JobSpec& job : jobs) truncated.submit(job);
  snapshot::Reader r3(std::string_view(bytes).substr(0, bytes.size() / 2));
  EXPECT_THROW(truncated.restore(r3), snapshot::SnapshotError);
}

/// Little-endian u64 at `off` of a snapshot byte string (codec.h layout).
std::uint64_t read_le64(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
  return v;
}

void write_le64(std::string& bytes, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

TEST(SnapshotRestore, RejectsCorruptCalendar) {
  // A calendar entry is (f64 key, u64 flow id). The step loop indexes the
  // flow store with that id and trusts the heap order, so restore must
  // reject every entry it could not run on. The test patches a real
  // checkpoint: a flow's key is the projection last_touched +
  // remaining / rate its last re-key computed, so its 8 bytes can be found
  // in the snapshot and the flow id follows them.
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 11);
  const Time makespan =
      run_uninterrupted(Scenario{fabric, "gurita", jobs, {}, false}).makespan;
  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched);
  for (const JobSpec& job : jobs) sim.submit(job);

  // Pause once some flow has finished and several have calendar entries.
  struct Keyed {
    std::uint64_t flow;
    Time key;
  };
  std::vector<Keyed> keyed;
  std::uint64_t finished = ~0ull;
  for (Time bound = makespan / 64; sim.run_to(bound); bound += makespan / 64) {
    keyed.clear();
    const SimState& state = sim.state();
    for (std::size_t i = 0; i < state.flow_count(); ++i) {
      const SimFlow& f = state.flow(FlowId{i});
      if (f.finished()) finished = i;
      if (f.active() && f.rate > 0 && f.remaining > kByteEpsilon)
        keyed.push_back({i, f.last_touched + f.remaining / f.rate});
    }
    if (keyed.size() >= 3 && finished != ~0ull) break;
  }
  ASSERT_GE(keyed.size(), 3u);
  ASSERT_NE(finished, ~0ull);
  snapshot::Writer w;
  sim.checkpoint(w);
  const std::string bytes = w.take();
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return a.key != b.key ? a.key < b.key : a.flow < b.flow;
  });
  const auto key_offset = [&](const Keyed& k) {
    std::string needle(8, '\0');
    write_le64(needle, 0, std::bit_cast<std::uint64_t>(k.key));
    const std::size_t off = bytes.find(needle);
    EXPECT_NE(off, std::string::npos);
    EXPECT_EQ(bytes.rfind(needle), off) << "key bytes are not unique";
    return off;
  };
  const std::size_t first = key_offset(keyed.front());
  // The latest entry is a leaf of the heap: nothing orders after it.
  const std::size_t last = key_offset(keyed.back());
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);

  const auto restore_and_run = [&](const std::string& snap) {
    const std::unique_ptr<Scheduler> sched2 = make_scheduler("gurita");
    Simulator other(fabric, *sched2);
    for (const JobSpec& job : jobs) other.submit(job);
    snapshot::Reader r(snap);
    other.restore(r);
    return other.run();
  };
  const auto expect_rejected = [&](std::size_t off, std::uint64_t word,
                                   const char* what) {
    SCOPED_TRACE(what);
    std::string bad = bytes;
    write_le64(bad, off, word);
    try {
      (void)restore_and_run(bad);
      ADD_FAILURE() << "corrupt calendar accepted";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("calendar"), std::string::npos)
          << e.what();
    }
  };

  // A flow id past the flow store.
  expect_rejected(last + 8, ~0ull, "flow id out of range");
  // The unpatched checkpoint restores and finishes.
  ASSERT_EQ(read_le64(bytes, first + 8), keyed.front().flow);
  ASSERT_EQ(read_le64(bytes, last + 8), keyed.back().flow);
  EXPECT_EQ(restore_and_run(bytes).jobs.size(), jobs.size());
  // A finished flow, which is in no active set.
  expect_rejected(last + 8, finished, "finished flow");
  // Two entries for one flow.
  expect_rejected(last + 8, keyed.front().flow, "duplicate flow id");
  // A key that is not a number.
  expect_rejected(last, std::bit_cast<std::uint64_t>(
                            std::numeric_limits<double>::quiet_NaN()),
                  "NaN key");
  // A leaf that orders before its parent.
  expect_rejected(last, std::bit_cast<std::uint64_t>(-1.0), "heap order");
}

TEST(SnapshotRestore, RejectsCorruptFaultState) {
  // The fault section ends the engine section: the parked flow ids, then
  // the retry calendar's (f64 restart time, u64 flow id) entries. Recovery
  // and retry handling index the flow store with those ids, so restore
  // must reject every id it could not run on. The run is built so that at
  // the pause two flows are parked and two are queued for retry, which
  // fixes the section's last 64 bytes.
  const BigSwitch fabric(BigSwitch::Config{8});
  std::vector<JobSpec> jobs(2);
  const auto add_flow = [&](JobSpec& job, int src, int dst) {
    if (job.coflows.empty()) {
      job.coflows.emplace_back();
      job.deps = {{}};
    }
    job.coflows[0].flows.push_back(FlowSpec{src, dst, 1e12});
  };
  add_flow(jobs[0], 4, 5);  // flow 0 transmits throughout
  add_flow(jobs[1], 0, 1);  // flows 1 and 2 touch host 0
  add_flow(jobs[1], 7, 0);
  add_flow(jobs[1], 2, 3);  // flows 3 and 4 touch host 3
  add_flow(jobs[1], 6, 3);
  Simulator::Config config;
  const auto host_event = [&](FaultKind kind, Time time, int host) {
    FaultEvent e;
    e.kind = kind;
    e.time = time;
    e.host = host;
    config.faults.events.push_back(e);
  };
  // Flows 1 and 2 abort at 0.1 and are queued at 0.2 to restart at 0.7;
  // flows 3 and 4 abort at 0.3 and stay parked until 1.0.
  host_event(FaultKind::kHostDown, 0.1, 0);
  host_event(FaultKind::kHostUp, 0.2, 0);
  host_event(FaultKind::kHostDown, 0.3, 3);
  host_event(FaultKind::kHostUp, 1.0, 3);
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;

  const auto make_sim = [&](std::unique_ptr<Scheduler>& sched) {
    sched = make_scheduler("pfs");
    auto sim = std::make_unique<Simulator>(fabric, *sched, config);
    for (const JobSpec& job : jobs) sim->submit(job);
    return sim;
  };
  std::unique_ptr<Scheduler> sched;
  const std::unique_ptr<Simulator> sim = make_sim(sched);
  ASSERT_TRUE(sim->run_to(0.5));
  snapshot::Writer w;
  sim->checkpoint(w);
  const std::string bytes = w.take();

  // Header (u32 magic, u32 version, u8 kind), the fingerprint section,
  // then the engine section; each section is prefixed by its u64 length.
  const std::size_t engine = 9 + 8 + read_le64(bytes, 9);
  const std::size_t end = engine + 8 + read_le64(bytes, engine);
  const std::size_t parked = end - 64;  // u64 count, then the ids
  const std::size_t retry = end - 40;   // u64 count, then the entries
  ASSERT_EQ(read_le64(bytes, parked), 2u);
  ASSERT_EQ(read_le64(bytes, parked + 8), 3u);
  ASSERT_EQ(read_le64(bytes, parked + 16), 4u);
  ASSERT_EQ(read_le64(bytes, retry), 2u);
  ASSERT_EQ(std::bit_cast<double>(read_le64(bytes, retry + 8)), 0.2 + 0.5);
  ASSERT_EQ(read_le64(bytes, retry + 16), 1u);
  ASSERT_EQ(read_le64(bytes, retry + 32), 2u);
  const std::size_t second_parked = parked + 16;
  const std::size_t leaf_key = retry + 24;
  const std::size_t leaf_flow = retry + 32;

  const auto restore_and_run = [&](const std::string& snap) {
    std::unique_ptr<Scheduler> sched2;
    const std::unique_ptr<Simulator> other = make_sim(sched2);
    snapshot::Reader r(snap);
    other->restore(r);
    return other->run();
  };
  const auto expect_rejected =
      [&](std::vector<std::pair<std::size_t, std::uint64_t>> patches,
          const char* what) {
        SCOPED_TRACE(what);
        std::string bad = bytes;
        for (const auto& [off, word] : patches) write_le64(bad, off, word);
        try {
          (void)restore_and_run(bad);
          ADD_FAILURE() << "corrupt fault state accepted";
        } catch (const snapshot::SnapshotError& e) {
          const std::string msg = e.what();
          EXPECT_TRUE(msg.find("parked") != std::string::npos ||
                      msg.find("retry") != std::string::npos)
              << msg;
        }
      };

  // Ids past the flow store.
  expect_rejected({{second_parked, ~0ull}}, "parked id out of range");
  expect_rejected({{leaf_flow, ~0ull}}, "retry id out of range");
  // The unpatched checkpoint restores and finishes like the paused run.
  const SimResults resumed = restore_and_run(bytes);
  const SimResults reference = sim->run();
  EXPECT_EQ(resumed.events, reference.events);
  EXPECT_EQ(resumed.flow_retries, 4u);
  ASSERT_EQ(resumed.jobs.size(), 2u);
  EXPECT_EQ(resumed.jobs[1].finish, reference.jobs[1].finish);
  // Repeated ids, and a flow both parked and queued.
  expect_rejected({{second_parked, 3}}, "parked id repeated");
  expect_rejected({{leaf_flow, 1}}, "retry id repeated");
  expect_rejected({{leaf_flow, 3}}, "parked and queued");
  // Flow 0 transmits: it is in the active set, not backing off.
  expect_rejected({{second_parked, 0}}, "parked flow is transmitting");
  expect_rejected({{leaf_flow, 0}}, "queued flow is transmitting");
  // A key that is not a number, and a leaf that orders before its parent.
  expect_rejected({{leaf_key, std::bit_cast<std::uint64_t>(
                                  std::numeric_limits<double>::quiet_NaN())}},
                  "NaN key");
  expect_rejected({{leaf_flow, 1}, {retry + 16, 2}}, "heap order");
}

void write_le32(std::string& bytes, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/// Byte offsets into a simulator checkpoint's engine section (the layout
/// save_engine writes): each flow's record, the fields after its path,
/// each coflow's flow list, the coflow aggregates and the active set.
struct EngineLayout {
  std::vector<std::size_t> flows;         ///< u64 job, i32 coflow index, ...
  std::vector<std::size_t> flow_tails;    ///< f64 size, ... bool cancelled
  std::vector<std::size_t> coflow_lists;  ///< u64 count, then the flow ids
  std::size_t aggregates = 0;  ///< per coflow: four f64, i32 open connections
  std::size_t active = 0;                 ///< u64 count, then the flow ids
};

EngineLayout engine_layout(const std::string& bytes) {
  EngineLayout out;
  // Header (u32 magic, u32 version, u8 kind), the fingerprint section, the
  // engine section's length, then now, dirty, iterations, next arrival and
  // next tick.
  std::size_t p = 9 + 8 + read_le64(bytes, 9) + 8;
  p += 8 + 1 + 8 + 8 + 8;
  p += 8 + 8 * read_le64(bytes, p);  // link capacities
  const std::uint64_t n_flows = read_le64(bytes, p);
  p += 8;
  for (std::uint64_t i = 0; i < n_flows; ++i) {
    out.flows.push_back(p);
    p += 8 + 3 * 4;                    // job, coflow index, two hosts
    p += 8 + 8 * read_le64(bytes, p);  // path
    out.flow_tails.push_back(p);
    // Six f64 sizes and times, attempts, lost bytes, abort time, cancelled.
    p += 6 * 8 + 4 + 8 + 8 + 1;
  }
  const std::uint64_t n_coflows = read_le64(bytes, p);
  p += 8;
  for (std::uint64_t i = 0; i < n_coflows; ++i) {
    out.coflow_lists.push_back(p);
    p += 8 + 8 * read_le64(bytes, p) + 4 + 4 + 8 + 8;
  }
  const std::uint64_t n_jobs = read_le64(bytes, p);
  p += 8 + n_jobs * (4 + 8 + 1 + 4);  // job dynamic fields
  out.aggregates = p;
  p += n_coflows * (4 * 8 + 4);
  out.active = p;
  return out;
}

/// A paused run whose checkpoint has a known flow store: on an 8-host big
/// switch, job 0's coflow holds flows 0 and 1, job 1's flow 2 and job 2's
/// flow 3. Flow 3 finishes at 0.1; the other three transmit through the
/// pause at 0.5, so the active set is [0, 1, 2].
struct CorruptibleRun {
  BigSwitch fabric{BigSwitch::Config{8, 100.0}};
  std::vector<JobSpec> jobs;
  std::string bytes;
  EngineLayout layout;

  CorruptibleRun() {
    const auto job = [](std::vector<FlowSpec> flows) {
      JobSpec j;
      j.coflows.emplace_back();
      j.coflows[0].flows = std::move(flows);
      j.deps = {{}};
      return j;
    };
    jobs = {job({FlowSpec{0, 1, 1e6}, FlowSpec{2, 3, 1e6}}),
            job({FlowSpec{4, 5, 1e6}}), job({FlowSpec{6, 7, 10.0}})};
    const std::unique_ptr<Scheduler> sched = make_scheduler("pfs");
    Simulator sim(fabric, *sched);
    for (const JobSpec& j : jobs) sim.submit(j);
    EXPECT_TRUE(sim.run_to(0.5));
    snapshot::Writer w;
    sim.checkpoint(w);
    bytes = w.take();
    layout = engine_layout(bytes);
  }

  SimResults restore_and_run(const std::string& snap) const {
    const std::unique_ptr<Scheduler> sched = make_scheduler("pfs");
    Simulator other(fabric, *sched);
    for (const JobSpec& j : jobs) other.submit(j);
    snapshot::Reader r(snap);
    other.restore(r);
    return other.run();
  }

  /// Applies `patch` to a copy of the checkpoint and expects restore to
  /// throw a SnapshotError whose message contains `message`.
  template <typename Patch>
  void expect_rejected(Patch patch, const char* message) const {
    SCOPED_TRACE(message);
    std::string bad = bytes;
    patch(bad);
    try {
      (void)restore_and_run(bad);
      ADD_FAILURE() << "corrupt snapshot accepted";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
};

TEST(SnapshotRestore, RejectsCorruptFlowStore) {
  // The engine indexes jobs, coflows, hosts and links with a flow's
  // fields, and coflow finishes walk the coflow's flow list, so restore
  // must reject every id it could not run on.
  const CorruptibleRun run;
  const EngineLayout& l = run.layout;
  ASSERT_EQ(l.flows.size(), 4u);
  ASSERT_EQ(l.coflow_lists.size(), 3u);
  ASSERT_EQ(read_le64(run.bytes, l.flows[2]), 1u);  // flow 2's job
  ASSERT_EQ(read_le64(run.bytes, l.flows[0] + 20), 2u);  // two-hop path
  ASSERT_EQ(read_le64(run.bytes, l.coflow_lists[0]), 2u);
  ASSERT_EQ(read_le64(run.bytes, l.coflow_lists[0] + 16), 1u);
  // The unpatched checkpoint restores and finishes.
  EXPECT_EQ(run.restore_and_run(run.bytes).jobs.size(), 3u);

  run.expect_rejected(
      [&](std::string& b) { write_le64(b, l.flows[2], 3); },
      "flow job out of range");
  run.expect_rejected(
      [&](std::string& b) { write_le32(b, l.flows[1] + 8, 1); },
      "flow coflow index out of range");
  run.expect_rejected(
      [&](std::string& b) { write_le32(b, l.flows[1] + 8, ~0u); },
      "flow coflow index out of range");
  run.expect_rejected(
      [&](std::string& b) { write_le32(b, l.flows[0] + 12, 8); },
      "flow host out of range");
  run.expect_rejected(
      [&](std::string& b) { write_le32(b, l.flows[3] + 16, ~0u); },
      "flow host out of range");
  run.expect_rejected(
      [&](std::string& b) { write_le64(b, l.flows[2] + 36, 16); },
      "flow path link out of range");
  run.expect_rejected(
      [&](std::string& b) { write_le64(b, l.coflow_lists[0] + 16, 4); },
      "coflow flow id out of range");
  // Flow 2 belongs to job 1's coflow, not job 0's.
  run.expect_rejected(
      [&](std::string& b) { write_le64(b, l.coflow_lists[0] + 16, 2); },
      "coflow lists a flow of another coflow");
}

TEST(SnapshotRestore, RejectsCorruptActiveSet) {
  // Every active flow is released, unfinished, uncancelled and not backing
  // off, and appears once: the allocator and the step loop trust that.
  const CorruptibleRun run;
  const EngineLayout& l = run.layout;
  ASSERT_EQ(read_le64(run.bytes, l.active), 3u);
  ASSERT_EQ(read_le64(run.bytes, l.active + 8), 0u);
  ASSERT_EQ(read_le64(run.bytes, l.active + 16), 1u);
  ASSERT_EQ(read_le64(run.bytes, l.active + 24), 2u);
  const std::size_t abort_time = 60;  // offsets into a flow's tail
  const std::size_t cancelled = 68;
  const std::size_t open_connections = 4 * 8;  // into a coflow's aggregate
  // Job 0's coflow has two open connections: flows 0 and 1.
  ASSERT_EQ(read_le64(run.bytes, l.aggregates + open_connections) & 0xffffffffu,
            2u);
  ASSERT_EQ(std::bit_cast<double>(
                read_le64(run.bytes, l.flow_tails[1] + abort_time)),
            -1.0);

  run.expect_rejected(
      [&](std::string& b) { write_le64(b, l.active + 24, 0); },
      "active flow id repeated");
  // Flow 3 finished at 0.1.
  run.expect_rejected(
      [&](std::string& b) { write_le64(b, l.active + 24, 3); },
      "active set holds a flow that is not transmitting");
  run.expect_rejected(
      [&](std::string& b) { b[l.flow_tails[1] + cancelled] = 1; },
      "active set holds a flow that is not transmitting");
  run.expect_rejected(
      [&](std::string& b) {
        write_le64(b, l.flow_tails[1] + abort_time,
                   std::bit_cast<std::uint64_t>(0.25));
      },
      "active set holds a flow that is not transmitting");
  run.expect_rejected(
      [&](std::string& b) {
        write_le32(b, l.aggregates + open_connections, 1);
      },
      "coflow open connections disagree with the active set");
}

/// Bytes of the first entry of a scheduler's first table, which starts at
/// `off` of its payload (the layout each save_state writes through
/// write_table: u64 key, then the value).
std::size_t first_entry_bytes(const std::string& name,
                              const std::string& payload, std::size_t off) {
  if (name == "gurita") {
    // Head receiver: completed stages, its observation table (u64 coflow,
    // i32 stage, three f64).
    return 8 + 4 + 8 + read_le64(payload, off + 12) * (8 + 4 + 3 * 8);
  }
  if (name == "gurita_plus") return 8 + 8 + read_le64(payload, off + 8);
  if (name == "baraat") return 8 + 8;
  return 8 + 4;  // aalo, mcs, stream: an i32 queue
}

TEST(SnapshotRestore, RejectsCorruptSchedulerState) {
  // Schedulers index the engine's jobs and coflows with their table keys
  // (and compaction remaps them), so restore must reject a key it could
  // not use: out of range, repeated or out of order. Each case patches the
  // scheduler section of a real mid-run checkpoint; the section comes last
  // and holds exactly what save_state writes.
  const FatTree fabric(FatTree::Config{4});
  TraceConfig trace;
  trace.num_jobs = 12;
  trace.num_hosts = fabric.num_hosts();
  trace.structure = StructureKind::kMixed;
  trace.seed = 11;
  const std::vector<JobSpec> jobs = generate_trace(trace);
  const Time makespan =
      run_uninterrupted(Scenario{fabric, "pfs", jobs, {}, false}).makespan;

  for (const std::string name :
       {"gurita", "gurita_plus", "aalo", "baraat", "mcs", "stream"}) {
    SCOPED_TRACE("scheduler " + name);
    std::string bytes;
    std::string payload;
    std::uint64_t bound = 0;
    {
      const std::unique_ptr<Scheduler> sched = make_scheduler(name);
      Simulator sim(fabric, *sched);
      for (const JobSpec& job : jobs) sim.submit(job);
      ASSERT_TRUE(sim.run_to(0.3 * makespan));
      snapshot::Writer w;
      sim.checkpoint(w);
      bytes = w.take();
      snapshot::Writer sw;
      sched->save_state(sw);
      payload = sw.take();
      bound = name == "aalo" || name == "mcs" ? sim.state().coflow_count()
                                              : sim.state().job_count();
    }
    const std::size_t base = bytes.size() - payload.size();
    ASSERT_EQ(bytes.substr(base), payload);
    ASSERT_EQ(read_le64(bytes, base - 8), payload.size());
    // Every first table is the payload's first field.
    ASSERT_GE(read_le64(payload, 0), 2u) << "too few entries to reorder";
    const std::size_t key0 = base + 8;
    const std::size_t key1 = key0 + first_entry_bytes(name, payload, 8);
    const std::uint64_t first = read_le64(bytes, key0);
    const std::uint64_t second = read_le64(bytes, key1);
    ASSERT_LT(first, second);
    ASSERT_LT(second, bound);

    const auto restore = [&](const std::string& snap) {
      const std::unique_ptr<Scheduler> sched = make_scheduler(name);
      Simulator other(fabric, *sched);
      for (const JobSpec& job : jobs) other.submit(job);
      snapshot::Reader r(snap);
      other.restore(r);
    };
    const auto expect_rejected = [&](const auto& patch, const char* message) {
      SCOPED_TRACE(message);
      std::string bad = bytes;
      patch(bad);
      try {
        restore(bad);
        ADD_FAILURE() << "corrupt scheduler state accepted";
      } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
            << e.what();
      }
    };
    // The unpatched checkpoint restores.
    restore(bytes);

    expect_rejected([&](std::string& b) { write_le64(b, key0, bound); },
                    "out of range");
    expect_rejected(
        [&](std::string& b) { write_le64(b, key0, std::uint64_t{1} << 40); },
        "out of range");
    expect_rejected([&](std::string& b) { write_le64(b, key1, first); },
                    "not above the previous key");
    // The first two entries swapped whole.
    const std::size_t key2 = key1 + first_entry_bytes(name, payload,
                                                      key1 - base);
    expect_rejected(
        [&](std::string& b) {
          b.replace(key0, key2 - key0,
                    bytes.substr(key1, key2 - key1) +
                        bytes.substr(key0, key1 - key0));
        },
        "not above the previous key");
    expect_rejected(
        [&](std::string& b) { write_le64(b, base, payload.size() / 8 + 1); },
        "bytes left");

    if (name == "gurita_plus") {
      // decide_priorities() indexes the flags with coflow indices.
      expect_rejected(
          [&](std::string& b) {
            write_le64(b, key0 + 8, read_le64(b, key0 + 8) - 1);
          },
          "critical-path flags");
    }
    if (name == "gurita") {
      // Past both tables and the AVA mean (f64 sum, u64 count): the
      // adaptive learner's total, since-refresh, next slot and reservoir
      // count.
      std::size_t p = 8;
      for (std::uint64_t i = read_le64(payload, 0); i > 0; --i)
        p += first_entry_bytes(name, payload, p);
      p += 8 + read_le64(payload, p) * (8 + 4) + 16;
      const std::size_t next_slot = base + p + 16;
      const std::size_t reservoir = base + p + 24;
      ASSERT_EQ(read_le64(bytes, next_slot), 0u);
      ASSERT_EQ(read_le64(bytes, reservoir), 0u);
      expect_rejected([&](std::string& b) { write_le64(b, next_slot, 1024); },
                      "reservoir slot out of range");
      expect_rejected(
          [&](std::string& b) {
            write_le64(b, reservoir, std::uint64_t{1} << 40);
          },
          "bytes left");
    }
  }
}

TEST(SnapshotRestore, RejectsAdaptiveThresholdsPastTheirCapacity) {
  // A reservoir of 8 samples over 4 queues holds at most 8 samples and 3
  // boundaries.
  const auto state = [](std::uint64_t samples, std::uint64_t boundaries) {
    snapshot::Writer w;
    w.u64(samples);  // total observations
    w.u64(0);        // since refresh
    w.u64(0);        // next slot
    w.u64(samples);
    for (std::uint64_t i = 0; i < samples; ++i) w.f64(1.0);
    w.u64(boundaries);
    for (std::uint64_t i = 0; i < boundaries; ++i) w.f64(1.0);
    return w.take();
  };
  const auto load = [](const std::string& bytes) {
    AdaptiveThresholds learner(4, 8);
    snapshot::Reader r(bytes);
    learner.load_state(r);
    EXPECT_TRUE(r.done());
  };
  load(state(8, 3));
  EXPECT_THROW(load(state(9, 3)), snapshot::SnapshotError);
  EXPECT_THROW(load(state(8, 4)), snapshot::SnapshotError);
}

// ------------------------------------------------------------------ fuzz ---

/// One fuzz trial: a randomized workload/scheduler/fault draw, checkpointed
/// at a random fraction of its makespan and diffed against the
/// uninterrupted run — the snapshot analogue of the differential engine
/// fuzz (differential_engine_test.cpp).
void run_fuzz_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with fuzz seed " + std::to_string(seed));
  Rng rng(seed);
  FatTree::Config ft;
  ft.k = 4;
  ft.ecmp_salt = rng.next_u64();
  const FatTree fabric(ft);

  TraceConfig trace;
  trace.num_jobs = static_cast<int>(rng.uniform_int(3, 10));
  trace.num_hosts = fabric.num_hosts();
  trace.structure = static_cast<StructureKind>(rng.uniform_int(0, 2));
  trace.arrivals = rng.next_double() < 0.5 ? ArrivalPattern::kPoisson
                                           : ArrivalPattern::kBursty;
  trace.max_width = static_cast<int>(rng.uniform_int(2, 12));
  trace.seed = rng.next_u64();
  const std::vector<JobSpec> jobs = generate_trace(trace);

  const std::vector<std::string>& names = scheduler_names();
  Scenario s{fabric, names[rng.uniform_int(0, names.size() - 1)], jobs, {},
             /*with_trace=*/rng.next_double() < 0.5};
  // Unused draws (once the link-statistics flag, then a TCP ramp) keep
  // each seed's later draws.
  (void)rng.next_double();
  if (rng.next_double() < 0.3) (void)rng.uniform(1.0, 10.0);
  if (rng.next_double() < 0.4) {
    FaultPlanConfig plan;
    plan.host_crash_rate = rng.uniform(1.0, 8.0);
    plan.straggler_rate = rng.uniform(0.0, 4.0);
    plan.horizon = 0.5;
    plan.mean_downtime = rng.uniform(0.01, 0.1);
    s.sim_config.faults = generate_fault_plan(
        plan, rng.next_u64(), fabric.num_hosts(),
        fabric.topology().link_count());
  }

  const SimResults reference = run_uninterrupted(s);
  const Time split = rng.uniform(0.0, 1.0) * reference.makespan;
  SCOPED_TRACE("scheduler " + s.scheduler + ", split " +
               std::to_string(split));
  expect_same_results(run_split(s, split), reference);
}

TEST(SnapshotRoundTrip, FuzzRandomSplitAgainstUninterrupted) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_fuzz_trial(seed);
    if (::testing::Test::HasFailure())
      FAIL() << "snapshot fuzz diverged at seed " << seed;
  }
}

// A restored run must also still agree with the reference oracle — the
// checkpoint machinery sits on top of the calendar engine the oracle
// cross-checks, so this closes the loop end to end.
TEST(SnapshotRoundTrip, RestoredRunMatchesOracle) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 23);
  for (const std::string& name :
       {std::string("gurita"), std::string("aalo"), std::string("pfs")}) {
    SCOPED_TRACE("scheduler " + name);
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/false};

    const std::unique_ptr<Scheduler> oracle_sched = make_scheduler(name);
    OracleSimulator oracle(fabric, *oracle_sched, s.sim_config);
    for (const JobSpec& job : jobs) oracle.submit(job);
    const SimResults oracle_results = oracle.run();

    const SimResults resumed = run_split(s, 0.5 * oracle_results.makespan);
    EXPECT_EQ(resumed.makespan, oracle_results.makespan);
    EXPECT_EQ(resumed.events, oracle_results.events);
    EXPECT_EQ(resumed.rate_recomputations, oracle_results.rate_recomputations);
    ASSERT_EQ(resumed.jobs.size(), oracle_results.jobs.size());
    for (std::size_t i = 0; i < resumed.jobs.size(); ++i)
      EXPECT_EQ(resumed.jobs[i].finish, oracle_results.jobs[i].finish)
          << "job " << i;
  }
}

// --------------------------------------- experiment runner halt/resume ---

/// Bitwise comparison of two pooled comparisons, scheduler by scheduler
/// (jobs, coflows, counters and traces; the wall-clock profile is outside
/// the contract).
void expect_same_comparison(const ComparisonResult& a,
                            const ComparisonResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [name, results] : a.results) {
    SCOPED_TRACE(name);
    const auto it = b.results.find(name);
    ASSERT_NE(it, b.results.end());
    expect_same_results(results, it->second);
  }
}

ExperimentConfig small_scenario() {
  ExperimentConfig config = trace_scenario(StructureKind::kMixed, 12, 5);
  config.fat_tree_k = 4;
  config.obs.trace = true;
  return config;
}

/// Arrivals one at a time, 200 checkpoint periods apart, of category-I
/// jobs that finish long before the next arrival: the fabric sits idle
/// through each gap, so the checkpoint driver must ratchet its bound
/// across it instead of waiting for run_to() to make progress.
ExperimentConfig idle_gap_scenario() {
  ExperimentConfig config = small_scenario();
  config.trace.arrivals = ArrivalPattern::kBursty;
  config.trace.burst_size = 1;
  config.trace.burst_gap = 200 * 0.05;
  config.trace.category_weights = {1, 0, 0, 0, 0, 0, 0};
  return config;
}

TEST(SnapshotDeterminism, HaltedRunResumesByteIdentical) {
  const std::vector<std::string> names = {"gurita", "aalo"};
  int input = 0;
  for (const ExperimentConfig& baseline :
       {small_scenario(), idle_gap_scenario()}) {
    SCOPED_TRACE("input " + std::to_string(input));
    const ComparisonResult want = compare_schedulers(baseline, names);

    const std::string dir = ::testing::TempDir() +
                            "gurita_snapshot_halt_test" +
                            std::to_string(input++);
    std::filesystem::remove_all(dir);
    ExperimentConfig checkpointed = baseline;
    checkpointed.checkpoint.every = 0.05;
    checkpointed.checkpoint.dir = dir;

    ExperimentConfig halted = checkpointed;
    halted.checkpoint.halt_after = 1;
    EXPECT_THROW((void)compare_schedulers(halted, names, "cell0"),
                 snapshot::HaltedError);

    ExperimentConfig resumed = checkpointed;
    resumed.checkpoint.resume = true;
    resumed.obs.profile = true;
    const ComparisonResult got = compare_schedulers(resumed, names, "cell0");
    expect_same_comparison(got, want);

    // A second resume restores every shard from its final checkpoint and
    // still reports the identical bytes. Nothing runs, so no shard reports
    // a profiled run.
    const ComparisonResult finished =
        compare_schedulers(resumed, names, "cell0");
    expect_same_comparison(finished, want);
    for (const std::string& name : names) {
      EXPECT_EQ(got.results.at(name).profile.runs, 1u) << name;
      EXPECT_EQ(finished.results.at(name).profile.runs, 0u) << name;
    }
  }
}

TEST(SnapshotDeterminism, HaltResumeSweepByteIdenticalAcrossWorkerCounts) {
  SweepSpec sweep;
  sweep.experiment = "snapshot-determinism";
  sweep.schedulers = {"gurita", "pfs"};
  sweep.replicates = 2;
  for (int jobs : {8, 12}) {
    ExperimentConfig config = trace_scenario(StructureKind::kMixed, jobs, 3);
    config.fat_tree_k = 4;
    config.obs.trace = true;
    sweep.configs.push_back(config);
  }
  const std::vector<ComparisonResult> want = run_sweep(sweep, 1);

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const std::string dir = ::testing::TempDir() +
                            "gurita_snapshot_sweep_test_w" +
                            std::to_string(workers);
    std::filesystem::remove_all(dir);

    SweepSpec halted = sweep;
    for (ExperimentConfig& config : halted.configs) {
      config.checkpoint.every = 0.05;
      config.checkpoint.dir = dir;
      config.checkpoint.halt_after = 1;
    }
    EXPECT_THROW((void)run_sweep(halted, workers), snapshot::HaltedError);

    SweepSpec resumed = sweep;
    for (ExperimentConfig& config : resumed.configs) {
      config.checkpoint.every = 0.05;
      config.checkpoint.dir = dir;
      config.checkpoint.resume = true;
    }
    const std::vector<ComparisonResult> got = run_sweep(resumed, workers);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      SCOPED_TRACE("config " + std::to_string(c));
      expect_same_comparison(got[c], want[c]);
    }
  }
}

}  // namespace
}  // namespace gurita
