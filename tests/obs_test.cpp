// Tests for the obs/ telemetry subsystem (ISSUE: structured simulation
// telemetry) and its determinism contracts:
//
//  * recorder filtering and JSONL export round-trips;
//  * the summary export pools counters like SimResults::merge_counters
//    (makespan the max), byte-identically at 1/2/8 workers (the
//    ordered-merge half of DESIGN.md §9 applied to telemetry), and its
//    --diagnostics splice stays valid JSON;
//  * same seed + same workload ⇒ byte-identical exported trace at any
//    worker count;
//  * differential check: the event-calendar engine and the reference oracle
//    (tests/oracle_sim.h) drive a scheduler through the *same ordered
//    sequence* of coflow queue-transition records;
//  * the phase profiler accounts for the run without perturbing it;
//  * registry histograms pool byte-identically at 1/2/8 workers, and the
//    interval sampler emits a deterministic timeline on an exact sim-time
//    grid without perturbing the run (DESIGN.md §14).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/blocking_effect.h"
#include "exp/experiment.h"
#include "exp/export.h"
#include "exp/registry.h"
#include "flowsim/simulator.h"
#include "obs/memory.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "oracle_sim.h"
#include "topology/big_switch.h"
#include "workload/trace_gen.h"
#include "seeded_comparison.h"

namespace gurita {
namespace {

using obs::TraceEventKind;
using obs::TraceRecord;
using obs::TraceRecorder;

// --------------------------------------------------------------- recorder

TraceRecord queue_change(
    double t, std::uint64_t job, int old_q, int new_q,
    obs::QueueChangeCause cause = obs::QueueChangeCause::kHrDecision) {
  return obs::queue_change_record(t, JobId{job}, CoflowId{job * 10}, old_q,
                                  new_q, cause,
                                  {.omega = 0.5,
                                   .epsilon = 0.25,
                                   .ell_max = 1e9,
                                   .width = 40,
                                   .cp_discount = 0.5,
                                   .psi = 0.5 * 0.25 * 1e9 * 40 * 0.5});
}

// The builders state the kQueueChange layout once, for every cause: the
// LBEF causes copy a BlockingInputs breakdown (v4 is the applied
// critical-path discount), the others carry only their signal.
TEST(QueueChangeRecord, PinsLayoutForEveryCause) {
  using Cause = obs::QueueChangeCause;
  BlockingInputs critical;
  critical.omega = 0.5;
  critical.epsilon = 0.25;
  critical.ell_max = 1e9;
  critical.width = 40;
  critical.beta = 0.25;
  critical.on_critical_path = true;
  BlockingInputs off_path = critical;
  off_path.on_critical_path = false;
  const JobId job{3};
  const CoflowId coflow{30};
  struct Case {
    TraceRecord record;
    int old_q, new_q;
    Cause cause;
    std::array<double, 6> v;  ///< expected v0..v5
  };
  const std::vector<Case> cases = {
      {obs::queue_change_record(2.0, job, coflow, -1, 0, Cause::kRelease),
       -1, 0, Cause::kRelease, {0, 0, 0, 0, 0, 0}},
      {queue_change_record(2.0, job, coflow, 0, 2, Cause::kHrDecision,
                           critical, 9.5),
       0, 2, Cause::kHrDecision, {0.5, 0.25, 1e9, 40, 0.75, 9.5}},
      {queue_change_record(2.0, job, coflow, 1, 3, Cause::kSelfDemote,
                           off_path, 7.0),
       1, 3, Cause::kSelfDemote, {0.5, 0.25, 1e9, 40, 1.0, 7.0}},
      {obs::queue_change_record(2.0, job, coflow, 0, 1, Cause::kBytesSent,
                                {.psi = 4096.0}),
       0, 1, Cause::kBytesSent, {0, 0, 0, 0, 0, 4096.0}},
      {queue_change_record(2.0, job, coflow, 2, 1, Cause::kRecompute,
                           critical, 3.0),
       2, 1, Cause::kRecompute, {0.5, 0.25, 1e9, 40, 0.75, 3.0}},
      {obs::queue_change_record(2.0, job, coflow, -1, 0, Cause::kFaultReset),
       -1, 0, Cause::kFaultReset, {0, 0, 0, 0, 0, 0}},
  };
  std::set<Cause> covered;
  for (const Case& c : cases) {
    const TraceRecord& r = c.record;
    SCOPED_TRACE(static_cast<int>(c.cause));
    covered.insert(c.cause);
    EXPECT_EQ(r.kind, TraceEventKind::kQueueChange);
    EXPECT_EQ(r.time, 2.0);
    EXPECT_EQ(r.job, 3u);
    EXPECT_EQ(r.coflow, 30u);
    EXPECT_EQ(r.flow, obs::kNoTraceId);
    EXPECT_EQ(r.i0, c.old_q);
    EXPECT_EQ(r.i1, c.new_q);
    EXPECT_EQ(r.i2, static_cast<std::int32_t>(c.cause));
    EXPECT_EQ((std::array<double, 6>{r.v0, r.v1, r.v2, r.v3, r.v4, r.v5}),
              c.v);
  }
  EXPECT_EQ(covered.size(), 6u) << "every QueueChangeCause has a row";
}

TEST(TraceRecorder, FiltersByKindMask) {
  TraceRecorder rec(obs::mask_of(TraceEventKind::kQueueChange));
  EXPECT_TRUE(rec.wants(TraceEventKind::kQueueChange));
  EXPECT_FALSE(rec.wants(TraceEventKind::kFlowFinish));

  rec.emit(queue_change(1.0, 1, 0, 1));
  TraceRecord other;
  other.kind = TraceEventKind::kFlowFinish;
  rec.emit(other);
  ASSERT_EQ(rec.records().size(), 1u);
  EXPECT_EQ(rec.records()[0].kind, TraceEventKind::kQueueChange);
}

TEST(TraceRecorder, EmptyMaskKeepsNothing) {
  TraceRecorder rec(/*mask=*/0);
  rec.emit(queue_change(1.0, 1, 0, 1));
  EXPECT_TRUE(rec.records().empty());
}

TEST(TraceRecorder, TakeMovesBufferOut) {
  TraceRecorder rec;
  rec.emit(queue_change(1.0, 1, 0, 1));
  const std::vector<TraceRecord> out = rec.take();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(rec.records().empty());
}

TEST(TraceFilter, ParsesNamedSets) {
  EXPECT_EQ(obs::parse_trace_filter("all"), TraceRecorder::kAllKinds);
  EXPECT_EQ(obs::parse_trace_filter("default"), TraceRecorder::kDefaultKinds);
  EXPECT_EQ(obs::parse_trace_filter("queue_change"),
            obs::mask_of(TraceEventKind::kQueueChange));
  EXPECT_EQ(obs::parse_trace_filter("queue_change,flow_finish"),
            obs::mask_of(TraceEventKind::kQueueChange) |
                obs::mask_of(TraceEventKind::kFlowFinish));
  EXPECT_THROW(obs::parse_trace_filter("not_a_kind"), std::logic_error);
  EXPECT_THROW(obs::parse_trace_filter("queue_change,,flow_finish"),
               std::logic_error);
}

TEST(TraceFilter, DefaultExcludesFirehoses) {
  const std::uint32_t mask = TraceRecorder::kDefaultKinds;
  EXPECT_EQ(mask & obs::mask_of(TraceEventKind::kFlowRateChange), 0u);
  EXPECT_EQ(mask & obs::mask_of(TraceEventKind::kStarvationWeights), 0u);
  EXPECT_NE(mask & obs::mask_of(TraceEventKind::kQueueChange), 0u);
}

TEST(TraceKinds, NamesRoundTrip) {
  for (int k = 0; k < obs::kNumTraceEventKinds; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    EXPECT_EQ(obs::kind_from_name(obs::kind_name(kind)), kind);
  }
  EXPECT_THROW(obs::kind_from_name("bogus"), std::logic_error);
}

// ---------------------------------------------------------------- export

std::vector<TraceRecord> sample_records() {
  std::vector<TraceRecord> records;
  records.push_back(
      queue_change(0.25, 3, -1, 0, obs::QueueChangeCause::kRelease));
  records.push_back(queue_change(0.5, 3, 0, 2));
  TraceRecord fr;
  fr.kind = TraceEventKind::kFlowRelease;
  fr.time = 1.0 / 3.0;  // a double that needs full precision to round-trip
  fr.job = 3;
  fr.coflow = 30;
  fr.flow = 7;
  fr.i0 = 4;   // src host
  fr.i1 = 19;  // dst host
  fr.v0 = 1.5e8;
  records.push_back(fr);
  TraceRecord fault;  // a link going down: no job, coflow or flow id
  fault.kind = TraceEventKind::kFault;
  fault.time = 2.0;
  fault.i0 = 2;   // FaultKind::kLinkDown
  fault.i2 = 11;  // link
  fault.v0 = 0.25;
  records.push_back(fault);
  return records;
}

TEST(TraceJsonl, RoundTripsRecordsAndLabel) {
  const std::vector<TraceRecord> records = sample_records();
  std::ostringstream out;
  obs::write_jsonl(out, records, "run-a/gurita");
  std::istringstream in(out.str());
  const std::vector<obs::TraceSection> sections = obs::read_jsonl(in);
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].label, "run-a/gurita");
  ASSERT_EQ(sections[0].records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& a = records[i];
    const TraceRecord& b = sections[0].records[i];
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.time, b.time) << "record " << i;
    EXPECT_EQ(a.i0, b.i0) << "record " << i;
    EXPECT_EQ(a.i1, b.i1) << "record " << i;
    EXPECT_EQ(a.i2, b.i2) << "record " << i;
    EXPECT_EQ(a.v0, b.v0) << "record " << i;
    EXPECT_EQ(a.v5, b.v5) << "record " << i;
  }
}

// flow_release carries a field literally named "src" (the source host); the
// section label must not collide with it on read-back.
TEST(TraceJsonl, FlowReleaseSrcFieldDoesNotSplitSections) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 4; ++i) {
    TraceRecord fr;
    fr.kind = TraceEventKind::kFlowRelease;
    fr.time = i;
    fr.job = 1;
    fr.coflow = 2;
    fr.flow = static_cast<std::uint64_t>(i);
    fr.i0 = i;      // src host — a different value per record
    fr.i1 = i + 8;  // dst host
    fr.v0 = 100.0;
    records.push_back(fr);
  }
  std::ostringstream out;
  obs::write_jsonl(out, records, "label");
  std::istringstream in(out.str());
  const std::vector<obs::TraceSection> sections = obs::read_jsonl(in);
  ASSERT_EQ(sections.size(), 1u);
  ASSERT_EQ(sections[0].records.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sections[0].records[i].i0, i);
}

TEST(TraceJsonl, ConsecutiveLabelsGroupIntoSections) {
  std::ostringstream out;
  obs::write_jsonl(out, {queue_change(1.0, 1, 0, 1)}, "a");
  obs::write_jsonl(out, {queue_change(2.0, 2, 0, 1)}, "a");
  obs::write_jsonl(out, {queue_change(3.0, 3, 0, 1)}, "b");
  std::istringstream in(out.str());
  const std::vector<obs::TraceSection> sections = obs::read_jsonl(in);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].label, "a");
  EXPECT_EQ(sections[0].records.size(), 2u);
  EXPECT_EQ(sections[1].label, "b");
}

TEST(TraceJsonl, MalformedLineThrows) {
  std::istringstream missing_kind(R"({"t":1,"job":3})" "\n");
  EXPECT_THROW(obs::read_jsonl(missing_kind), std::logic_error);
  std::istringstream unknown_field(
      R"({"t":1,"kind":"job_finish","bogus":7})" "\n");
  EXPECT_THROW(obs::read_jsonl(unknown_field), std::logic_error);
  std::istringstream not_json("queue_change at t=1\n");
  EXPECT_THROW(obs::read_jsonl(not_json), std::logic_error);
}

// %.17g spells non-finite values inf, -inf, nan and -nan; the reader takes
// every one of them back, and ids above 2^53 come back exactly.
TEST(TraceJsonl, RoundTripsNonFiniteValuesAndWideIds) {
  TraceRecord r = queue_change(1.0, 7, 0, 1);
  r.job = 9007199254740993ull;  // 2^53 + 1: not representable as a double
  r.v0 = std::numeric_limits<double>::infinity();
  r.v1 = -std::numeric_limits<double>::infinity();
  r.v2 = std::numeric_limits<double>::quiet_NaN();
  r.v3 = -std::numeric_limits<double>::quiet_NaN();
  std::ostringstream out;
  obs::write_jsonl(out, {r}, "nonfinite");
  std::istringstream in(out.str());
  const std::vector<obs::TraceSection> sections = obs::read_jsonl(in);
  ASSERT_EQ(sections.size(), 1u);
  ASSERT_EQ(sections[0].records.size(), 1u);
  const TraceRecord& back = sections[0].records[0];
  EXPECT_EQ(back.job, r.job);
  EXPECT_EQ(back.v0, r.v0);
  EXPECT_EQ(back.v1, r.v1);
  EXPECT_TRUE(std::isnan(back.v2));
  EXPECT_TRUE(std::isnan(back.v3));
  EXPECT_EQ(back.v4, r.v4);
  EXPECT_EQ(back.i2, r.i2);
}

// --------------------------------------------------------------- registry

TEST(Registry, CountersAndGauges) {
  obs::Registry reg;
  reg.add("a.events");
  reg.add("a.events", 4);
  reg.max_gauge("a.makespan", 2.5);
  reg.max_gauge("a.makespan", 1.0);  // max, not last write
  EXPECT_EQ(reg.counter("a.events"), 5u);
  EXPECT_EQ(reg.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("a.makespan"), 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("absent"), 0.0);
}

TEST(Registry, ToJsonIsNameOrderedAndStable) {
  obs::Registry reg;
  reg.add("z.last", 1);
  reg.add("a.first", 2);
  reg.max_gauge("m.gauge", 0.5);
  const std::string json = reg.to_json();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  obs::Registry same;
  same.max_gauge("m.gauge", 0.5);
  same.add("a.first", 2);
  same.add("z.last", 1);
  EXPECT_EQ(json, same.to_json());  // insertion order is irrelevant
}

TEST(Registry, ExportTraceCountersCountsPerKind) {
  obs::Registry reg;
  std::vector<TraceRecord> records = {queue_change(1.0, 1, 0, 1),
                                      queue_change(2.0, 1, 1, 2)};
  TraceRecord fr;
  fr.kind = TraceEventKind::kFlowFinish;
  records.push_back(fr);
  obs::export_trace_counters(records, reg);
  EXPECT_EQ(reg.counter("trace.queue_change"), 2u);
  EXPECT_EQ(reg.counter("trace.flow_finish"), 1u);
}

// ------------------------------------------- counter pooling equivalence

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig config = trace_scenario(StructureKind::kMixed, 20, seed);
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Exports `results` (one labeled cell each) through export_traces and
/// returns the summary JSON's bytes.
std::string export_summary(const std::vector<ComparisonResult>& results,
                           const std::string& leaf,
                           const ExportOptions& options = {}) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < results.size(); ++i)
    labels.push_back("cell" + std::to_string(i));
  const std::string path = ::testing::TempDir() + "gurita_obs_" + leaf;
  (void)export_traces(labels, results, path, options);
  return slurp(path + ".summary.json");
}

// The summary export is the one pooling path for the registry: its engine
// and fault counters must equal SimResults::merge_counters over the same
// runs, and its makespan gauge the largest makespan, not the last run's.
TEST(RegistryMerge, MatchesMergeCounters) {
  std::vector<ComparisonResult> cells;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    cells.push_back(compare_schedulers(small_config(seed), {"gurita"}));

  SimResults pooled = cells[0].results.at("gurita");
  for (std::size_t i = 1; i < cells.size(); ++i)
    pooled.merge_counters(cells[i].results.at("gurita"));
  ASSERT_LT(cells.back().results.at("gurita").makespan, pooled.makespan)
      << "the last run holds the largest makespan, so max and last agree";

  const JsonValue summary = parse_json(export_summary(cells, "pool.jsonl"));
  obs::Registry direct;
  pooled.export_counters(direct);
  for (const auto& [name, value] : direct.counters())
    EXPECT_EQ(summary.at("counters").at(name).as_u64(), value) << name;
  ASSERT_EQ(direct.gauges().size(), 1u);
  EXPECT_EQ(summary.at("gauges").at("engine.makespan").as_double(),
            pooled.makespan);
}

// The summary comes out byte-identical at 1, 2 and 8 workers: the
// replicates are merged in replicate order regardless of which worker ran
// them (DESIGN.md §9), and the export walks the pooled results in a fixed
// order.
TEST(RegistryMerge, WorkerCountInvariant) {
  const std::vector<std::string> names = {"gurita", "aalo"};
  std::vector<std::string> summaries;
  for (const int jobs : {1, 2, 8}) {
    const ComparisonResult result =
        compare_schedulers_seeds(small_config(7), names, /*num_seeds=*/4, jobs);
    summaries.push_back(export_summary(
        {result}, "workers" + std::to_string(jobs) + ".jsonl"));
    const double makespan = std::max(result.results.at("gurita").makespan,
                                     result.results.at("aalo").makespan);
    EXPECT_EQ(
        parse_json(summaries.back()).at("gauges").at("engine.makespan")
            .as_double(),
        makespan);
  }
  EXPECT_EQ(summaries[0], summaries[1]) << "1 worker vs 2 workers";
  EXPECT_EQ(summaries[0], summaries[2]) << "1 worker vs 8 workers";
}

// --diagnostics splices a non-fingerprinted object into the summary: the
// result must still parse, carry the pooled allocator counters and memory
// peaks, and cutting the object out must leave the plain summary's bytes.
TEST(ExportTraces, DiagnosticsSpliceIsValidJson) {
  ExperimentConfig config = small_config(3);
  config.obs.diagnostics = true;
  std::vector<ComparisonResult> cells;
  cells.push_back(compare_schedulers(config, {"gurita", "aalo"}));
  config.trace.seed = 4;
  cells.push_back(compare_schedulers(config, {"gurita", "aalo"}));

  SimResults::Diagnostics pooled;
  for (const ComparisonResult& cell : cells)
    for (const auto& [name, res] : cell.results) pooled.merge(res.diagnostics);
  ASSERT_GT(pooled.alloc.allocations, 0u);
  ASSERT_GT(pooled.memory.peak_total(), 0u);

  const std::string plain = export_summary(cells, "plain.jsonl");
  const std::string spliced =
      export_summary(cells, "diag.jsonl", ExportOptions{/*diagnostics=*/true});
  const JsonValue summary = parse_json(spliced);
  const JsonValue& alloc = summary.at("diagnostics").at("alloc");
  EXPECT_EQ(alloc.at("allocations").as_u64(), pooled.alloc.allocations);
  EXPECT_EQ(alloc.at("flows_solved").as_u64(), pooled.alloc.flows_solved);
  EXPECT_EQ(alloc.at("components_solved").as_u64(),
            pooled.alloc.components_solved);
  EXPECT_EQ(alloc.at("dirty_links").as_u64(), pooled.alloc.dirty_links);
  EXPECT_EQ(alloc.at("waterfill_rounds").as_u64(),
            pooled.alloc.waterfill_rounds);
  EXPECT_EQ(alloc.at("live_link_visits").as_u64(),
            pooled.alloc.live_link_visits);
  EXPECT_EQ(alloc.at("component_flows").at("count").as_u64(),
            pooled.alloc.component_flows.total());
  const JsonValue& memory = summary.at("diagnostics").at("memory");
  using S = obs::MemoryAccountant::Subsystem;
  for (int i = 0; i < obs::MemoryAccountant::kNumSubsystems; ++i) {
    const S s = static_cast<S>(i);
    const std::string key =
        std::string(obs::MemoryAccountant::subsystem_name(s)) + "_peak_bytes";
    EXPECT_EQ(memory.at(key).as_u64(), pooled.memory.peak(s)) << key;
  }
  EXPECT_EQ(memory.at("total_peak_bytes").as_u64(),
            pooled.memory.peak_total());

  const std::size_t cut = spliced.find(",\n  \"diagnostics\": ");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(spliced.substr(0, cut) + "\n}\n", plain);
}

// ----------------------------------------------------- trace determinism

std::string pooled_trace_jsonl(int jobs) {
  ExperimentConfig config = small_config(11);
  config.obs.trace = true;
  const ComparisonResult result = compare_schedulers_seeds(
      config, {"gurita", "aalo"}, /*num_seeds=*/3, jobs);
  std::ostringstream out;
  for (const auto& [name, res] : result.results)
    obs::write_jsonl(out, res.trace, name);
  return out.str();
}

// Same seed + same workload ⇒ byte-identical exported trace at any worker
// count: per-replicate traces are appended in replicate order with job and
// coflow ids re-based, exactly like the serial run.
TEST(TraceDeterminism, ByteIdenticalAcrossWorkerCounts) {
  const std::string serial = pooled_trace_jsonl(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled_trace_jsonl(2)) << "1 worker vs 2 workers";
  EXPECT_EQ(serial, pooled_trace_jsonl(8)) << "1 worker vs 8 workers";
}

TEST(TraceDeterminism, RerunIsByteIdentical) {
  EXPECT_EQ(pooled_trace_jsonl(1), pooled_trace_jsonl(1));
}

// Differential oracle: the fast engine and the reference oracle must drive
// a scheduler through the same ordered sequence of queue-transition
// decisions. The fast engine gets its recorder through Simulator::Config
// (which forwards it to the scheduler); the oracle's scheduler is handed
// its recorder directly — the hook the engine deliberately leaves open for
// externally driven schedulers.
void expect_same_queue_transitions(const std::string& scheduler_name,
                                   std::uint64_t seed) {
  SCOPED_TRACE(scheduler_name + " @ seed " + std::to_string(seed));
  const BigSwitch fabric(BigSwitch::Config{24, gbps(10.0)});
  TraceConfig trace;
  trace.num_jobs = 8;
  trace.num_hosts = fabric.num_hosts();
  trace.structure = StructureKind::kMixed;
  trace.seed = seed;
  const std::vector<JobSpec> jobs = generate_trace(trace);

  const std::uint32_t mask = obs::mask_of(TraceEventKind::kQueueChange);
  TraceRecorder fast_rec(mask);
  TraceRecorder oracle_rec(mask);

  std::unique_ptr<Scheduler> fast_sched = make_scheduler(scheduler_name);
  std::unique_ptr<Scheduler> oracle_sched = make_scheduler(scheduler_name);
  oracle_sched->set_trace_recorder(&oracle_rec);

  Simulator::Config config;
  config.trace = &fast_rec;
  Simulator fast(fabric, *fast_sched, config);
  OracleSimulator oracle(fabric, *oracle_sched);
  for (const JobSpec& job : jobs) {
    fast.submit(job);
    oracle.submit(job);
  }
  (void)fast.run();
  (void)oracle.run();

  const std::vector<TraceRecord>& a = fast_rec.records();
  const std::vector<TraceRecord>& b = oracle_rec.records();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty()) << "workload produced no queue transitions";
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "transition " << i;
}

TEST(TraceDifferential, EnginesEmitSameQueueTransitionSequence) {
  for (const char* name : {"gurita", "gurita_plus", "aalo"})
    for (std::uint64_t seed : {21u, 22u, 23u})
      expect_same_queue_transitions(name, seed);
}

// ---------------------------------------------------------------- profiler

TEST(Profiler, NullScopedPhaseIsNoOp) {
  obs::ScopedPhase scope(nullptr, obs::Phase::kAllocator);  // must not crash
  obs::PhaseProfiler profiler;
  EXPECT_EQ(profiler.snapshot().runs, 0u);
  EXPECT_EQ(profiler.snapshot().tracked_ns(), 0u);
  EXPECT_DOUBLE_EQ(profiler.snapshot().coverage(), 0.0);
}

TEST(Profiler, ExclusiveAttributionNests) {
  obs::PhaseProfiler profiler;
  profiler.begin_run();
  {
    obs::ScopedPhase outer(&profiler, obs::Phase::kCompletion);
    obs::ScopedPhase inner(&profiler, obs::Phase::kDagRelease);
  }
  profiler.end_run();
  const obs::PhaseProfile& p = profiler.snapshot();
  EXPECT_EQ(p.runs, 1u);
  EXPECT_EQ(p.phases[static_cast<int>(obs::Phase::kCompletion)].count, 1u);
  EXPECT_EQ(p.phases[static_cast<int>(obs::Phase::kDagRelease)].count, 1u);
  EXPECT_LE(p.tracked_ns(), p.run_wall_ns);
  EXPECT_LE(p.coverage(), 1.0);
}

TEST(Profiler, MergeSums) {
  obs::PhaseProfile a, b;
  a.phases[0].ns = 10;
  a.phases[0].count = 1;
  a.run_wall_ns = 100;
  a.runs = 1;
  b.phases[0].ns = 5;
  b.phases[0].count = 2;
  b.run_wall_ns = 50;
  b.runs = 2;
  a.merge(b);
  EXPECT_EQ(a.phases[0].ns, 15u);
  EXPECT_EQ(a.phases[0].count, 3u);
  EXPECT_EQ(a.run_wall_ns, 150u);
  EXPECT_EQ(a.runs, 3u);
}

TEST(Profiler, CoversEngineRunWithoutPerturbingIt) {
  const ExperimentConfig config = small_config(5);
  const std::vector<JobSpec> jobs = generate_trace(config.trace);

  std::unique_ptr<Scheduler> plain_sched = make_scheduler("gurita");
  const SimResults plain = run_one(config, jobs, *plain_sched);

  ExperimentConfig profiled_config = config;
  profiled_config.obs.profile = true;
  std::unique_ptr<Scheduler> profiled_sched = make_scheduler("gurita");
  const SimResults profiled = run_one(profiled_config, jobs, *profiled_sched);

  // Profiling never touches simulation state: bit-identical outcomes.
  EXPECT_EQ(profiled.makespan, plain.makespan);
  EXPECT_EQ(profiled.events, plain.events);
  EXPECT_EQ(profiled.flow_touches, plain.flow_touches);

  const obs::PhaseProfile& p = profiled.profile;
  EXPECT_EQ(p.runs, 1u);
  EXPECT_LE(p.tracked_ns(), p.run_wall_ns);
  // The event loop's glue is small; keep the bound loose enough for
  // sanitizer builds while still proving the phases cover the run.
  EXPECT_GE(p.coverage(), 0.5);
  EXPECT_GT(p.phases[static_cast<int>(obs::Phase::kAllocator)].count, 0u);
  EXPECT_GT(p.phases[static_cast<int>(obs::Phase::kCompletion)].count, 0u);
  EXPECT_GT(
      p.phases[static_cast<int>(obs::Phase::kSchedulerAssign)].count, 0u);

  const std::string table = p.to_table();
  EXPECT_NE(table.find("allocator"), std::string::npos);
  EXPECT_NE(table.find("coverage"), std::string::npos);
}

// ------------------------------------------------- registry histograms

TEST(RegistryHistograms, ObserveAndJsonPercentiles) {
  obs::Registry reg;
  for (int i = 0; i < 99; ++i) reg.observe("jct", 5.0);
  reg.observe("jct", 5000.0);
  reg.observe("queue_wait", 0.0);

  EXPECT_EQ(reg.histograms().at("jct").total(), 100u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"jct\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  for (const char* key : {"\"p50\"", "\"p95\"", "\"p99\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // p50/p95 sit in [1, 10) -> upper edge 10; p99 lands in the top bucket.
  EXPECT_DOUBLE_EQ(reg.histogram("jct").percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(reg.histogram("jct").percentile(95), 10.0);
  EXPECT_DOUBLE_EQ(reg.histogram("jct").percentile(100), 10000.0);
  // Re-declaring with a different base is a bug, not a silent resplit.
  EXPECT_THROW(reg.histogram("jct", 2.0), std::logic_error);
}

// The export-layer projection: pooled results observed into latency
// histograms must serialize identically at 1, 2 and 8 workers (the
// replicate-order pooling of DESIGN.md §9 carried through to percentiles).
std::string pooled_histogram_json(int jobs) {
  const ComparisonResult result = compare_schedulers_seeds(
      small_config(17), {"gurita", "aalo"}, /*num_seeds=*/4, jobs);
  obs::Registry reg;
  for (const auto& [name, res] : result.results) {
    for (const SimResults::JobResult& j : res.jobs)
      if (!j.failed) reg.observe(name + ".jct", j.jct());
    for (const SimResults::CoflowResult& c : res.coflows) {
      if (c.failed || c.release < 0) continue;
      reg.observe(name + ".queue_wait",
                  c.release - res.jobs[c.job.value()].arrival);
    }
  }
  return reg.to_json();
}

TEST(RegistryHistograms, WorkerCountInvariant) {
  const std::string serial = pooled_histogram_json(1);
  EXPECT_NE(serial.find("\"gurita.jct\""), std::string::npos);
  EXPECT_EQ(serial, pooled_histogram_json(2)) << "1 worker vs 2 workers";
  EXPECT_EQ(serial, pooled_histogram_json(8)) << "1 worker vs 8 workers";
}

// ------------------------------------------------------ interval sampler

TEST(Sampler, BoundariesAreGridMultiples) {
  obs::IntervalSampler sampler(obs::IntervalSampler::Config{0.5});
  TraceRecorder rec(TraceRecorder::kAllKinds);
  EXPECT_DOUBLE_EQ(sampler.next_due(), 0.5);
  obs::IntervalSampler::SimSample sim;
  obs::IntervalSampler::MemSample mem;
  sim.events = 10;
  mem.state_bytes = 100;
  sampler.emit(rec, sim, mem);
  EXPECT_DOUBLE_EQ(sampler.next_due(), 1.0);
  sim.events = 30;
  sampler.emit(rec, sim, mem);
  // 1.5, not 0.5 + 0.5 + 0.5 accumulated: boundaries come from k * every.
  EXPECT_DOUBLE_EQ(sampler.next_due(), 3 * 0.5);

  ASSERT_EQ(rec.records().size(), 4u);  // (kSample, kMemSample) x 2
  const TraceRecord& s0 = rec.records()[0];
  EXPECT_EQ(s0.kind, TraceEventKind::kSample);
  EXPECT_DOUBLE_EQ(s0.time, 0.5);
  EXPECT_DOUBLE_EQ(s0.v0, 10.0);              // events
  EXPECT_DOUBLE_EQ(s0.v1, 10.0 / 0.5);        // events/s over the interval
  EXPECT_EQ(rec.records()[1].kind, TraceEventKind::kMemSample);
  EXPECT_DOUBLE_EQ(rec.records()[1].v5, 100.0);  // total
  const TraceRecord& s1 = rec.records()[2];
  EXPECT_DOUBLE_EQ(s1.time, 1.0);
  EXPECT_DOUBLE_EQ(s1.v1, (30.0 - 10.0) / 0.5);  // delta since last boundary
}

TEST(Sampler, CursorRoundTripResumesTheGrid) {
  obs::IntervalSampler a(obs::IntervalSampler::Config{0.25});
  TraceRecorder rec(TraceRecorder::kAllKinds);
  obs::IntervalSampler::SimSample sim;
  obs::IntervalSampler::MemSample mem;
  sim.events = 7;
  a.emit(rec, sim, mem);
  a.emit(rec, sim, mem);

  obs::IntervalSampler b(obs::IntervalSampler::Config{0.25});
  b.restore_cursor(a.cursor());
  EXPECT_DOUBLE_EQ(b.next_due(), a.next_due());
  // The restored events/sec delta matches: both emit identical records.
  TraceRecorder ra(TraceRecorder::kAllKinds), rb(TraceRecorder::kAllKinds);
  sim.events = 19;
  a.emit(ra, sim, mem);
  b.emit(rb, sim, mem);
  ASSERT_EQ(ra.records().size(), rb.records().size());
  for (std::size_t i = 0; i < ra.records().size(); ++i)
    EXPECT_EQ(ra.records()[i], rb.records()[i]);
}

TEST(Sampler, RejectsNonPositiveInterval) {
  EXPECT_THROW(obs::IntervalSampler(obs::IntervalSampler::Config{0.0}),
               std::logic_error);
}

// Attaching the sampler never perturbs the simulation: bit-identical
// outcomes, with kSample/kMemSample records riding the trace buffer.
TEST(Sampler, EngineTimelineDoesNotPerturbTheRun) {
  ExperimentConfig config = small_config(29);
  const std::vector<JobSpec> jobs = generate_trace(config.trace);
  std::unique_ptr<Scheduler> plain_sched = make_scheduler("gurita");
  const SimResults plain = run_one(config, jobs, *plain_sched);

  ExperimentConfig timeline_config = config;
  timeline_config.obs.timeline_every = 0.02;
  std::unique_ptr<Scheduler> timeline_sched = make_scheduler("gurita");
  const SimResults timed = run_one(timeline_config, jobs, *timeline_sched);

  EXPECT_EQ(timed.makespan, plain.makespan);
  EXPECT_EQ(timed.events, plain.events);
  EXPECT_EQ(timed.flow_touches, plain.flow_touches);

  std::size_t samples = 0, mem_samples = 0;
  double prev = 0;
  for (const TraceRecord& r : timed.trace) {
    if (r.kind == TraceEventKind::kSample) {
      ++samples;
      // Strictly increasing grid times, each an exact multiple of the
      // cadence (multiplication, not accumulation).
      EXPECT_GT(r.time, prev);
      const double k = r.time / 0.02;
      EXPECT_DOUBLE_EQ(k, std::round(k));
      prev = r.time;
    } else if (r.kind == TraceEventKind::kMemSample) {
      ++mem_samples;
    }
  }
  EXPECT_GT(samples, 0u) << "makespan " << timed.makespan
                         << " crossed no 0.02 s boundary";
  EXPECT_EQ(samples, mem_samples);
}

std::string pooled_timeline_jsonl(int jobs) {
  ExperimentConfig config = small_config(11);
  config.obs.timeline_every = 0.02;
  const ComparisonResult result = compare_schedulers_seeds(
      config, {"gurita", "aalo"}, /*num_seeds=*/3, jobs);
  std::ostringstream out;
  for (const auto& [name, res] : result.results)
    obs::write_jsonl(out, res.trace, name);
  return out.str();
}

// The tentpole determinism claim: the pooled timeline (sampler records
// included) is byte-identical at any worker count.
TEST(TimelineDeterminism, ByteIdenticalAcrossWorkerCounts) {
  const std::string serial = pooled_timeline_jsonl(1);
  EXPECT_NE(serial.find("sample"), std::string::npos)
      << "timeline export carried no sampler records";
  EXPECT_EQ(serial, pooled_timeline_jsonl(2)) << "1 worker vs 2 workers";
  EXPECT_EQ(serial, pooled_timeline_jsonl(8)) << "1 worker vs 8 workers";
}

// --------------------------------------------------- memory accountant

TEST(MemoryAccountant, PeaksFoldAndMergeByMax) {
  using S = obs::MemoryAccountant::Subsystem;
  obs::MemoryAccountant a;
  a.observe(S::kState, 100);
  a.observe(S::kCalendar, 50);
  a.observe(S::kState, 40);  // current drops, peak holds
  EXPECT_EQ(a.current(S::kState), 40u);
  EXPECT_EQ(a.peak(S::kState), 100u);
  EXPECT_EQ(a.peak_total(), 150u);

  obs::MemoryAccountant b;
  b.observe(S::kState, 70);
  b.observe(S::kTrace, 500);
  a.merge(b);
  EXPECT_EQ(a.peak(S::kState), 100u);
  EXPECT_EQ(a.peak(S::kTrace), 500u);
  EXPECT_EQ(a.peak_total(), 570u);
}

// -------------------------------------------------- engine trace content

// The engine's own record stream is internally consistent: releases pair
// with finishes, ids resolve, and queue transitions carry the Ψ̈ breakdown.
TEST(EngineTrace, RecordsPairUpAndCarryPsiBreakdown) {
  ExperimentConfig config = small_config(13);
  config.obs.trace = true;
  const std::vector<JobSpec> jobs = generate_trace(config.trace);
  std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  const SimResults res = run_one(config, jobs, *sched);
  ASSERT_FALSE(res.trace.empty());

  std::uint64_t count[obs::kNumTraceEventKinds] = {};
  bool saw_psi_breakdown = false;
  for (const TraceRecord& r : res.trace) {
    ++count[static_cast<int>(r.kind)];
    if (r.kind == TraceEventKind::kQueueChange &&
        r.i2 == static_cast<int>(obs::QueueChangeCause::kHrDecision)) {
      EXPECT_GT(r.v5, 0.0);  // Ψ̈ itself
      EXPECT_GT(r.v3, 0.0);  // n̈ (width)
      EXPECT_GT(r.v4, 0.0);  // critical-path discount in (0, 1]
      EXPECT_LE(r.v4, 1.0);
      saw_psi_breakdown = true;
    }
  }
  const auto n = [&](TraceEventKind k) { return count[static_cast<int>(k)]; };
  EXPECT_EQ(n(TraceEventKind::kJobArrival), jobs.size());
  EXPECT_EQ(n(TraceEventKind::kJobFinish), jobs.size());
  EXPECT_EQ(n(TraceEventKind::kCoflowRelease),
            n(TraceEventKind::kCoflowFinish));
  EXPECT_EQ(n(TraceEventKind::kFlowRelease), n(TraceEventKind::kFlowFinish));
  EXPECT_GT(n(TraceEventKind::kQueueChange), 0u);
  EXPECT_TRUE(saw_psi_breakdown)
      << "no HR-decision queue transition carried the Ψ̈ factor breakdown";
}

}  // namespace
}  // namespace gurita
