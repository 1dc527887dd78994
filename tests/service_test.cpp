// Tests for the open-horizon service daemon (src/service/, DESIGN.md §15):
// hardened feed parsing, aggregated option validation, the async-signal-safe
// latch, recovery identity and corrupt-checkpoint checks, and the
// ServiceDeterminism suite — shed decisions byte-identical across 1/2/8
// concurrent daemon instances, a drained run agreeing with the
// uninterrupted one on every job that finished before the trigger, halt +
// recover byte-identical exports (with and without a non-empty admission
// queue), and the compaction memory bound. ServiceDeterminism is part of the
// TSan gate.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "exp/export.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "service/signals.h"
#include "snapshot/snapshot.h"
#include "workload/feed.h"

namespace gurita::service {
namespace {

std::string test_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "gurita_service_test/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Export a report's trace + summary and return both as one byte string.
std::string export_bytes(const DaemonReport& report, const std::string& path) {
  (void)export_traces({"service"}, {report.comparison}, path);
  return slurp(path) + slurp(path + ".summary.json");
}

/// Open-loop options sized so every ServiceDeterminism case runs in well
/// under a second: a k=4 fabric (16 hosts) at moderate load.
DaemonOptions base_options(std::uint64_t seed, std::uint64_t jobs,
                           double load) {
  DaemonOptions o;
  o.fat_tree_k = 4;
  o.open_loop.shape.seed = seed;
  o.open_loop.load = load;
  o.open_loop.service_rate = 16 * o.link_capacity;
  o.max_jobs = jobs;
  o.poll_signals = false;
  o.trace_mask = obs::TraceRecorder::kDefaultKinds;
  return o;
}

/// Overload variant: watermarks and queue small enough that arrivals queue
/// and overflow (reject-new) constantly at 3x offered load.
DaemonOptions overload_options(std::uint64_t jobs) {
  DaemonOptions o = base_options(/*seed=*/11, jobs, /*load=*/3.0);
  o.queue_capacity = 2;
  o.watermarks.active_flows_high = 8;
  o.watermarks.active_flows_low = 4;
  return o;
}

/// Two fields of a kServiceState checkpoint, found by walking the layout
/// Daemon writes (daemon.cpp, write_dynamic_section) up to the in-engine
/// job specs.
struct ServiceCheckpoint {
  std::uint64_t queued = 0;        ///< admission queue length
  std::uint64_t live_jobs = 0;     ///< ledger entries of in-engine jobs
  std::size_t waits_count_at = 0;  ///< byte offset of the wait-ring length
  std::size_t spec_count_at = 0;   ///< byte offset of the spec count
};

ServiceCheckpoint walk_service_checkpoint(const std::string& bytes) {
  ServiceCheckpoint out;
  snapshot::Reader r(bytes);
  EXPECT_EQ(snapshot::read_header(r), snapshot::PayloadKind::kServiceState);
  r.skip_to(r.begin_section());  // config section
  (void)r.begin_section();
  (void)r.u64();  // source jobs drawn
  (void)r.u64();  // generator cursor
  (void)r.f64();
  if (r.boolean()) {  // staged job
    (void)r.u64();
    (void)snapshot::read_job_spec(r);
  }
  out.queued = r.u64();
  for (std::uint64_t i = 0; i < out.queued; ++i) {
    (void)r.u64();
    (void)snapshot::read_job_spec(r);
  }
  (void)r.boolean();                         // overloaded
  for (int i = 0; i < 7; ++i) (void)r.u64();  // counters
  for (int i = 0; i < 3; ++i) (void)r.f64();  // cadences, makespan
  (void)r.u64();                             // next external coflow id
  (void)r.u64();                             // waits pushed
  out.waits_count_at = r.position();
  const std::uint64_t waits = r.u64();
  for (std::uint64_t i = 0; i < waits; ++i) (void)r.f64();
  for (int i = 0; i < 4; ++i) (void)r.u64();  // peaks
  out.live_jobs = r.u64();
  for (std::uint64_t i = 0; i < out.live_jobs; ++i) {
    (void)r.u64();  // external id
    (void)r.u64();  // external coflow base
  }
  const std::uint64_t jobs = r.u64();
  for (std::uint64_t i = 0; i < jobs; ++i) {
    (void)r.u64();
    for (int k = 0; k < 3; ++k) (void)r.f64();
    (void)r.i32();
    (void)r.boolean();
  }
  const std::uint64_t coflows = r.u64();
  for (std::uint64_t i = 0; i < coflows; ++i) {
    (void)r.u64();
    (void)r.u64();
    (void)r.i32();
    for (int k = 0; k < 3; ++k) (void)r.f64();
    (void)r.boolean();
  }
  out.spec_count_at = r.position();
  EXPECT_EQ(r.u64(), out.live_jobs) << "layout walk lost its place";
  return out;
}

// ------------------------------------------------------------------- feed

TEST(ServiceFeed, AggregatesEveryCorruptLineIntoOneError) {
  std::istringstream in(
      "# comment lines and blanks are skipped\n"
      "\n"
      "{\"id\": 1, \"arrival\": 0.5, \"coflows\": "
      "[{\"flows\": [{\"src\": 0, \"dst\": 1, \"bytes\": 100}]}]}\n"
      "this is not json\n"
      "{\"id\": 1, \"arrival\": 1.0, \"coflows\": "
      "[{\"flows\": [{\"src\": 0, \"dst\": 1, \"bytes\": 100}]}]}\n"
      "{\"id\": 2, \"arrival\": 0.25, \"coflows\": "
      "[{\"flows\": [{\"src\": 0, \"dst\": 1, \"bytes\": 100}]}]}\n"
      "{\"id\": 3, \"arrival\": 2.0, \"coflows\": "
      "[{\"flows\": [{\"src\": 0, \"dst\": 9, \"bytes\": 100}]}]}\n"
      "{\"id\": 4, \"arrival\": 3.0, \"coflows\": "
      "[{\"flows\": [{\"src\": 0, \"dst\": 1, \"bytes\": 0}]}]}\n");
  try {
    (void)parse_feed(in, "test-feed", /*num_hosts=*/4);
    FAIL() << "corrupt feed must throw";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;  // bad JSON
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;  // dup id
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;  // backwards
    EXPECT_NE(what.find("line 7"), std::string::npos) << what;  // bad host
    EXPECT_NE(what.find("line 8"), std::string::npos) << what;  // zero bytes
  }
}

TEST(ServiceFeed, WriteReadRoundTripIsValueExact) {
  std::vector<FeedJob> jobs(3);
  jobs[0].id = 7;
  jobs[0].spec.arrival_time = 0.125;
  jobs[0].spec.coflows = {CoflowSpec{{FlowSpec{0, 5, 1048576.0}}}};
  jobs[0].spec.deps = {{}};
  jobs[1].id = 8;
  jobs[1].spec.arrival_time = 0.1250000000000001;  // survives max_digits10
  jobs[1].spec.deadline = 9.5;
  jobs[1].spec.coflows = {CoflowSpec{{FlowSpec{1, 2, 2097152.0},
                                      FlowSpec{3, 4, 524288.0}}},
                          CoflowSpec{{FlowSpec{6, 7, 0.5}}}};
  jobs[1].spec.deps = {{}, {0}};
  jobs[2].id = 9;
  jobs[2].spec.arrival_time = 4.0;
  jobs[2].spec.coflows = {CoflowSpec{{FlowSpec{8, 9, 7.0}}}};
  jobs[2].spec.deps = {{}};

  std::ostringstream out;
  write_feed(out, jobs);
  std::istringstream in(out.str());
  const std::vector<FeedJob> got = parse_feed(in, "round-trip", 16);

  ASSERT_EQ(got.size(), jobs.size());
  EXPECT_EQ(feed_fingerprint(got), feed_fingerprint(jobs));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(got[i].id, jobs[i].id);
    EXPECT_EQ(got[i].spec.arrival_time, jobs[i].spec.arrival_time);
    EXPECT_EQ(got[i].spec.deadline, jobs[i].spec.deadline);
    EXPECT_EQ(got[i].spec.deps, jobs[i].spec.deps);
    ASSERT_EQ(got[i].spec.coflow_count(), jobs[i].spec.coflow_count());
    EXPECT_EQ(got[i].spec.total_bytes(), jobs[i].spec.total_bytes());
  }
}

// ---------------------------------------------------------------- options

TEST(ServiceOptions, ValidationAggregatesEveryIssue) {
  DaemonOptions bad = base_options(1, 4, 0.5);
  bad.queue_capacity = 0;
  bad.watermarks.active_flows_high = 4;   // high < low: nonsense ordering
  bad.watermarks.active_flows_low = 8;
  bad.checkpoint_every = 0.5;             // cadence without a path
  bad.scheduler = "adaptive";             // not a registry name
  try {
    Daemon daemon(std::move(bad));
    FAIL() << "contradictory options must throw";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("queue_capacity"), std::string::npos) << what;
    EXPECT_NE(what.find("active_flows"), std::string::npos) << what;
    EXPECT_NE(what.find("checkpoint"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown scheduler \"adaptive\""),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("gurita_plus"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------- signals

TEST(ServiceSignals, LatchDeliversAndClears) {
  clear_pending_signal();
  EXPECT_EQ(pending_signal(), 0);
  raise_pending_signal(SIGTERM);
  EXPECT_EQ(pending_signal(), SIGTERM);
  clear_pending_signal();
  EXPECT_EQ(pending_signal(), 0);
}

TEST(ServiceSignals, PendingSignalTriggersDrainBeforeAdmission) {
  clear_pending_signal();
  raise_pending_signal(SIGTERM);
  DaemonOptions o = base_options(2, 8, 0.5);
  o.poll_signals = true;  // sole daemon in this test: safe to poll
  Daemon daemon(std::move(o));
  const DaemonReport report = daemon.run();
  clear_pending_signal();
  EXPECT_EQ(report.drain_cause, SIGTERM);
  EXPECT_EQ(report.admitted, 0u);  // latched before the first boundary
}

// ---------------------------------------------------------------- recover

TEST(ServiceRecover, MismatchedOptionsAreRejectedWithOneError) {
  const std::string dir = test_dir("recover_mismatch");
  const std::string snap = dir + "/ck.snap";

  DaemonOptions o = base_options(3, 12, 0.5);
  o.checkpoint_path = snap;
  o.checkpoint_every = 10.0;
  o.halt_after_checkpoints = 1;
  {
    DaemonOptions crashing = o;
    Daemon daemon(std::move(crashing));
    EXPECT_THROW((void)daemon.run(), snapshot::HaltedError);
  }

  DaemonOptions wrong_seed = o;
  wrong_seed.halt_after_checkpoints = 0;
  wrong_seed.open_loop.shape.seed = 4;  // different generator stream
  {
    Daemon daemon(std::move(wrong_seed));
    EXPECT_THROW((void)daemon.recover(snap), ConfigError);
  }

  DaemonOptions wrong_queue = o;
  wrong_queue.halt_after_checkpoints = 0;
  wrong_queue.queue_capacity = o.queue_capacity + 1;
  {
    Daemon daemon(std::move(wrong_queue));
    EXPECT_THROW((void)daemon.recover(snap), ConfigError);
  }
}

TEST(ServiceRecover, SpecCountMismatchIsASnapshotError) {
  // The in-engine job specs must pair one to one with the ledger entries;
  // a checkpoint that disagrees is corrupt input, not an engine invariant.
  const std::string dir = test_dir("recover_spec_count");
  const std::string snap = dir + "/ck.snap";
  DaemonOptions o = base_options(3, 12, 0.5);
  o.checkpoint_path = snap;
  o.checkpoint_every = 10.0;
  o.halt_after_checkpoints = 1;
  {
    DaemonOptions crashing = o;
    Daemon daemon(std::move(crashing));
    EXPECT_THROW((void)daemon.run(), snapshot::HaltedError);
  }
  o.halt_after_checkpoints = 0;

  std::string bytes = snapshot::read_snapshot_file(snap);
  const ServiceCheckpoint layout = walk_service_checkpoint(bytes);
  ASSERT_GT(layout.live_jobs, 0u);
  for (int i = 0; i < 8; ++i)  // spec count - 1, little-endian
    bytes[layout.spec_count_at + static_cast<std::size_t>(i)] =
        static_cast<char>(((layout.live_jobs - 1) >> (8 * i)) & 0xff);
  snapshot::write_snapshot_file(snap, bytes);
  Daemon daemon(std::move(o));
  try {
    (void)daemon.recover(snap);
    FAIL() << "a spec count that disagrees with the ledger must throw";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("ledger"), std::string::npos)
        << e.what();
  }
}

TEST(ServiceRecover, WaitRingLongerThanItsWindowIsASnapshotError) {
  // The admission-wait ring holds at most 512 entries; a checkpoint that
  // claims more is corrupt, even when the bytes after it could back the
  // count.
  const std::string dir = test_dir("recover_wait_ring");
  const std::string snap = dir + "/ck.snap";
  DaemonOptions o = base_options(3, 12, 0.5);
  o.checkpoint_path = snap;
  o.checkpoint_every = 10.0;
  o.halt_after_checkpoints = 1;
  {
    DaemonOptions crashing = o;
    Daemon daemon(std::move(crashing));
    EXPECT_THROW((void)daemon.run(), snapshot::HaltedError);
  }
  o.halt_after_checkpoints = 0;

  std::string bytes = snapshot::read_snapshot_file(snap);
  const ServiceCheckpoint layout = walk_service_checkpoint(bytes);
  const std::uint64_t too_many = 513;
  for (int i = 0; i < 8; ++i)  // little-endian
    bytes[layout.waits_count_at + static_cast<std::size_t>(i)] =
        static_cast<char>((too_many >> (8 * i)) & 0xff);
  snapshot::write_snapshot_file(snap, bytes);
  Daemon daemon(std::move(o));
  try {
    (void)daemon.recover(snap);
    FAIL() << "a wait ring past its window must throw";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("window"), std::string::npos)
        << e.what();
  }
}

// ----------------------------------------------------- determinism gate

TEST(ServiceDeterminism, ShedDecisionsByteIdenticalAcross128Instances) {
  const std::string dir = test_dir("shed_concurrency");

  Daemon reference(overload_options(40));
  const DaemonReport ref = reference.run();
  EXPECT_GT(ref.shed_total, 0u) << "overload config must actually shed";
  EXPECT_EQ(ref.admitted + ref.shed_total, 40u);
  const std::string want = export_bytes(ref, dir + "/ref.jsonl");

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    std::vector<DaemonReport> reports(workers);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int i = 0; i < workers; ++i)
      threads.emplace_back([&reports, i] {
        Daemon daemon(overload_options(40));
        reports[i] = daemon.run();
      });
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < workers; ++i) {
      SCOPED_TRACE("instance " + std::to_string(i));
      const std::string got = export_bytes(
          reports[i],
          dir + "/w" + std::to_string(workers) + "_" + std::to_string(i) +
              ".jsonl");
      EXPECT_EQ(got, want);
    }
  }
}

TEST(ServiceDeterminism, DrainAgreesWithUninterruptedRunBeforeTrigger) {
  Daemon uninterrupted(base_options(5, 50, 0.8));
  const DaemonReport full = uninterrupted.run();
  const SimResults& full_results = full.comparison.results.at("gurita");
  ASSERT_EQ(full_results.jobs.size(), 50u);

  // Trigger the drain mid-run: at the median finish time every event up to
  // the trigger is shared with the uninterrupted run, so any job that
  // *finished* by then must report the identical JCT — later admissions
  // only ever change contention after the trigger.
  const Time trigger = full_results.jobs[25].finish;
  DaemonOptions drained_options = base_options(5, 50, 0.8);
  drained_options.drain_after_sim_time = trigger;
  Daemon drained(std::move(drained_options));
  const DaemonReport part = drained.run();
  const SimResults& part_results = part.comparison.results.at("gurita");
  EXPECT_LT(part_results.jobs.size(), full_results.jobs.size());

  std::map<std::uint64_t, SimResults::JobResult> by_id;
  for (const SimResults::JobResult& job : full_results.jobs)
    by_id[job.id.value()] = job;
  std::size_t compared = 0;
  for (const SimResults::JobResult& job : part_results.jobs) {
    if (job.finish > trigger) continue;  // finished during the drain tail
    const auto it = by_id.find(job.id.value());
    ASSERT_NE(it, by_id.end()) << "job " << job.id.value();
    EXPECT_EQ(job.arrival, it->second.arrival);
    EXPECT_EQ(job.finish, it->second.finish);  // bit-exact, not approximate
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(ServiceDeterminism, HaltRecoverExportByteIdentical) {
  const std::string dir = test_dir("halt_recover");
  const std::string snap = dir + "/ck.snap";

  Daemon uninterrupted(base_options(7, 30, 0.5));
  const std::string want =
      export_bytes(uninterrupted.run(), dir + "/full.jsonl");

  DaemonOptions crashing = base_options(7, 30, 0.5);
  crashing.checkpoint_path = snap;
  crashing.checkpoint_every = 25.0;
  crashing.halt_after_checkpoints = 2;
  {
    Daemon daemon(std::move(crashing));
    EXPECT_THROW((void)daemon.run(), snapshot::HaltedError);
  }
  ASSERT_TRUE(std::filesystem::exists(snap));

  DaemonOptions resuming = base_options(7, 30, 0.5);
  resuming.checkpoint_path = snap;
  resuming.checkpoint_every = 25.0;
  Daemon recovered(std::move(resuming));
  const std::string got =
      export_bytes(recovered.recover(snap), dir + "/recovered.jsonl");
  EXPECT_EQ(got, want);
}

TEST(ServiceDeterminism, HaltRecoverWithQueuedJobsByteIdentical) {
  // An overloaded daemon halts with jobs waiting in its admission queue;
  // the recovered run must admit and shed exactly what the uninterrupted
  // one does, queued-but-unadmitted jobs included.
  const std::string dir = test_dir("halt_recover_queued");
  const std::string snap = dir + "/ck.snap";
  constexpr Time kCadence = 100.0;  // the queue holds jobs from t ~ 51 to 146

  Daemon uninterrupted(overload_options(40));
  const DaemonReport full = uninterrupted.run();
  EXPECT_GT(full.shed_total, 0u) << "overload config must actually shed";
  const std::string want = export_bytes(full, dir + "/full.jsonl");

  DaemonOptions crashing = overload_options(40);
  crashing.checkpoint_path = snap;
  crashing.checkpoint_every = kCadence;
  crashing.halt_after_checkpoints = 1;
  {
    Daemon daemon(std::move(crashing));
    EXPECT_THROW((void)daemon.run(), snapshot::HaltedError);
  }
  EXPECT_GT(walk_service_checkpoint(snapshot::read_snapshot_file(snap)).queued,
            0u)
      << "the halting checkpoint must hold queued jobs";

  DaemonOptions resuming = overload_options(40);
  resuming.checkpoint_path = snap;
  resuming.checkpoint_every = kCadence;
  Daemon recovered(std::move(resuming));
  const DaemonReport report = recovered.recover(snap);
  EXPECT_GT(report.shed_total, 0u);
  EXPECT_EQ(export_bytes(report, dir + "/recovered.jsonl"), want);
}

TEST(ServiceDeterminism, CompactionBoundsLiveJobsAndStaysDeterministic) {
  const std::string dir = test_dir("compaction");

  Daemon compacting(base_options(9, 40, 0.5));  // compact_every default on
  const DaemonReport tight = compacting.run();
  EXPECT_EQ(tight.admitted, 40u);
  EXPECT_GT(tight.compactions, 0u);
  EXPECT_LE(tight.peak_live_jobs, 10u)
      << "memory must stay O(active), not O(ever admitted)";
  EXPECT_LE(tight.peak_calendar, tight.peak_active_flows)
      << "the calendar holds at most one entry per active flow";

  // Per-configuration determinism: the identical cadence reruns to the
  // byte (the engine contract compaction must not weaken).
  Daemon again(base_options(9, 40, 0.5));
  EXPECT_EQ(export_bytes(again.run(), dir + "/again.jsonl"),
            export_bytes(tight, dir + "/tight.jsonl"));

  DaemonOptions unbounded_options = base_options(9, 40, 0.5);
  unbounded_options.compact_every = 0;
  Daemon unbounded(std::move(unbounded_options));
  const DaemonReport loose = unbounded.run();
  EXPECT_EQ(loose.peak_live_jobs, 40u);

  // Against the uncompacted run the ledger-merged populations agree
  // job-for-job on everything spec-derived — same external ids, arrivals,
  // bytes and stage counts, no job lost or duplicated. Finishes are NOT
  // compared: ECMP hashes the flow id and compaction renumbers flow ids,
  // so flows released after a compaction can take other paths and
  // individual trajectories drift (simulator.h, compact()). The
  // spec-derived fields are exactly what a ledger mispairing bug would
  // corrupt, and they are immune to that drift.
  const SimResults& a = tight.comparison.results.at("gurita");
  const SimResults& b = loose.comparison.results.at("gurita");
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id.value(), b.jobs[i].id.value());
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].total_bytes, b.jobs[i].total_bytes);
    EXPECT_EQ(a.jobs[i].num_stages, b.jobs[i].num_stages);
    EXPECT_GE(a.jobs[i].finish, a.jobs[i].arrival);
  }
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
}

}  // namespace
}  // namespace gurita::service
