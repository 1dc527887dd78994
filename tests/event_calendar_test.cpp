// Tests for the incremental event-calendar engine: the indexed completion
// calendar (one entry per flow), exact finish times under lazy byte
// draining, incremental per-coflow aggregates vs brute-force recomputation,
// rate-zero flows (no calendar entry) under strict priority, compaction's
// effect on the counters, and the engine-cost counters bench_engine
// reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/gurita.h"
#include "exp/registry.h"
#include "fault/plan.h"
#include "flowsim/calendar.h"
#include "flowsim/simulator.h"
#include "obs/registry.h"
#include "sched/pfs.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

JobSpec one_flow_job(Bytes size, int src, int dst, Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

/// One job, one coflow, `flows` transfers on disjoint host pairs
/// (i -> flows + i), sizes spread over `groups` batches.
JobSpec disjoint_pairs_job(int flows, int groups) {
  JobSpec job;
  CoflowSpec coflow;
  for (int i = 0; i < flows; ++i)
    coflow.flows.push_back(
        FlowSpec{i, flows + i, 100.0 * static_cast<double>(1 + i % groups)});
  job.coflows.push_back(coflow);
  job.deps = {{}};
  return job;
}

// ------------------------------------------------- the flow calendar

/// Pops every entry, returning the flow ids in pop order.
std::vector<std::uint64_t> drain(FlowCalendar& cal) {
  std::vector<std::uint64_t> order;
  while (!cal.empty()) {
    EXPECT_TRUE(FlowCalendar::is_heap(cal.entries()));
    order.push_back(cal.top().flow.value());
    cal.pop();
  }
  return order;
}

FlowCalendar calendar_of(const std::vector<Time>& keys) {
  FlowCalendar cal;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cal.add_flow();
    cal.set(FlowId{i}, keys[i]);
  }
  return cal;
}

TEST(FlowCalendar, ReKeysInPlaceUpAndDown) {
  FlowCalendar cal = calendar_of({5.0, 3.0, 8.0, 1.0, 6.0, 4.0});
  ASSERT_EQ(cal.top().flow.value(), 3u);
  cal.set(FlowId{3}, 7.0);  // the top moves down
  cal.set(FlowId{2}, 0.5);  // the latest key moves up to the top
  cal.set(FlowId{4}, 6.0);  // unchanged key
  EXPECT_EQ(cal.size(), 6u);  // re-keys never add entries
  EXPECT_TRUE(FlowCalendar::is_heap(cal.entries()));
  EXPECT_EQ(cal.top().key, 0.5);
  EXPECT_EQ(drain(cal), (std::vector<std::uint64_t>{2, 1, 5, 0, 4, 3}));
}

TEST(FlowCalendar, EraseAtTopMiddleAndLastSlot) {
  const std::vector<Time> keys = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  // Inserted in key order, so slot i holds flow i.
  for (const std::uint64_t victim : {0u, 2u, 6u}) {
    SCOPED_TRACE("erasing flow " + std::to_string(victim));
    FlowCalendar cal = calendar_of(keys);
    ASSERT_EQ(cal.entries()[victim].flow.value(), victim);
    cal.erase(FlowId{victim});
    cal.erase(FlowId{victim});  // erasing an absent flow is a no-op
    EXPECT_EQ(cal.size(), keys.size() - 1);
    std::vector<std::uint64_t> want;
    for (std::uint64_t f = 0; f < keys.size(); ++f)
      if (f != victim) want.push_back(f);
    EXPECT_EQ(drain(cal), want);
  }
  // An erase that refills a slot with an entry earlier than the slot's
  // parent must sift it up: heap [1, 10, 2, 11, 12, 3, 4], erase key 11's
  // flow, and key 4 (the last slot) moves under key 10.
  FlowCalendar cal = calendar_of({1.0, 10.0, 2.0, 11.0, 12.0, 3.0, 4.0});
  cal.erase(FlowId{3});
  EXPECT_TRUE(FlowCalendar::is_heap(cal.entries()));
  EXPECT_EQ(drain(cal), (std::vector<std::uint64_t>{0, 2, 5, 6, 1, 4}));
}

TEST(FlowCalendar, EqualKeysPopInFlowIdOrder) {
  // Inserted high id first and re-keyed onto a shared key, the pop order
  // is still ascending flow id: the order is (key, id), not history.
  FlowCalendar cal;
  for (int i = 0; i < 6; ++i) cal.add_flow();
  for (std::uint64_t f : {5u, 3u, 1u, 4u, 0u, 2u}) cal.set(FlowId{f}, 9.0);
  cal.set(FlowId{4}, 2.0);
  cal.set(FlowId{1}, 2.0);
  cal.set(FlowId{4}, 1.0);
  cal.set(FlowId{4}, 2.0);
  EXPECT_EQ(drain(cal), (std::vector<std::uint64_t>{1, 4, 0, 2, 3, 5}));
}

TEST(FlowCalendar, RemapsInPlaceUnderMonotoneRenumbering) {
  // Flows 0..7; flows 1, 4 and 6 have no entry and are evicted. The
  // survivors keep their relative order, so the array keeps its layout.
  FlowCalendar cal;
  for (int i = 0; i < 8; ++i) cal.add_flow();
  const std::vector<std::pair<std::uint64_t, Time>> live = {
      {7, 3.0}, {0, 3.0}, {5, 1.0}, {2, 4.0}, {3, 1.0}};
  for (const auto& [f, key] : live) cal.set(FlowId{f}, key);
  constexpr std::uint64_t evicted = CompactionRemap::kEvicted;
  const std::vector<std::uint64_t> flow_map = {0, evicted, 1, 2,
                                               evicted, 3, evicted, 4};
  std::vector<FlowCalendar::Entry> before = cal.entries();
  cal.remap(flow_map, 5);
  EXPECT_EQ(cal.index_size(), 5u);
  ASSERT_EQ(cal.entries().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(cal.entries()[i].key, before[i].key);
    EXPECT_EQ(cal.entries()[i].flow.value(),
              flow_map[before[i].flow.value()]);
  }
  // The index follows the new ids: re-keys and erases by new id work.
  cal.set(FlowId{4}, 0.5);  // was flow 7
  cal.erase(FlowId{1});     // was flow 2
  EXPECT_EQ(drain(cal), (std::vector<std::uint64_t>{4, 2, 3, 0}));
}

// -------------------------------------------------- exact lazy-drain times

TEST(EventCalendar, ContentionFinishTimesExact) {
  // Two flows share host 0's uplink (100 B/s): equal-share 50/50 until the
  // small one drains (100 B at t=2), then the big one takes the full port
  // and its calendar key must be re-projected from the lazily-settled
  // residue: 300 - 2*50 = 200 B at 100 B/s -> t=4.
  const BigSwitch fabric(BigSwitch::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  sim.submit(one_flow_job(100.0, 0, 1));
  sim.submit(one_flow_job(300.0, 0, 2));
  const SimResults r = sim.run();
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_NEAR(r.jobs[0].jct(), 2.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].jct(), 4.0, 1e-9);
  EXPECT_NEAR(r.makespan, 4.0, 1e-9);
}

TEST(EventCalendar, StaggeredArrivalRekeysInFlightFlow) {
  // Flow A (400 B) runs alone at 100 B/s for 1 s, then flow B (100 B)
  // arrives on the same uplink: A has 300 B left, both drop to 50 B/s, B
  // drains at t=3, A re-projects to 300 - 2*50 = 200 B -> finishes t=5.
  const BigSwitch fabric(BigSwitch::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  sim.submit(one_flow_job(400.0, 0, 1));
  sim.submit(one_flow_job(100.0, 0, 2, 1.0));
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].jct(), 5.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].jct(), 2.0, 1e-9);  // arrived t=1, done t=3
}

// ------------------------------------------------------------- rate-zero

/// Strict priority against job 0: its flows sit in tier 1 and get only the
/// capacity every other job's tier-0 flows leave.
class StarveJobZeroScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "starve-job-0"; }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    (void)now;
    for (const SimFlow* f : active)
      set_priority(state().job(f->job).coflows[f->coflow_index],
                   f->job.value() == 0 ? 1 : 0, 1.0);
  }
};

TEST(EventCalendar, ZeroCapacityStallThenRestore) {
  // A rate-0 flow has no calendar entry; the finish that frees its link
  // must re-key it. Job 0's 100 B flow runs alone: 50 B by t=0.5. Then
  // job 1's 100 B flow arrives on the same uplink in the higher tier and
  // takes the whole link, so job 0 stalls during [0.5, 1.5) and finishes
  // at t=2.0.
  const BigSwitch fabric(BigSwitch::Config{4, 100.0});
  StarveJobZeroScheduler scheduler;
  Simulator sim(fabric, scheduler);
  sim.submit(one_flow_job(100.0, 0, 1));
  sim.submit(one_flow_job(100.0, 0, 2, 0.5));
  ASSERT_TRUE(sim.run_to(1.0));
  EXPECT_EQ(sim.active_flow_count(), 2u);
  EXPECT_EQ(sim.calendar_size(), 1u);  // the starved flow has no entry
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[1].finish, 1.5, 1e-9);
  EXPECT_NEAR(r.jobs[0].finish, 2.0, 1e-9);
  EXPECT_NEAR(r.makespan, 2.0, 1e-9);
}

// ----------------------------------------- aggregates vs brute-force sums

/// PFS priorities plus an audit pass: at every tick and every assignment it
/// recomputes each coflow/job byte aggregate by brute force from the flows'
/// lazy state and compares against the engine's O(1) incremental getters.
class AggregateAuditScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "audit"; }
  [[nodiscard]] Time tick_interval() const override { return 0.05; }
  bool on_tick(Time now) override {
    audit(now);
    return false;
  }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    audit(now);
    for (const SimFlow* f : active)
      set_priority(state().job(f->job).coflows[f->coflow_index],
                   static_cast<Tier>(f->job.value()), 1.0);
  }
  [[nodiscard]] int audits() const { return audits_; }

 private:
  void audit(Time now) {
    const SimState& s = state();
    ASSERT_DOUBLE_EQ(s.now(), now);
    for (std::size_t ci = 0; ci < s.coflow_count(); ++ci) {
      const SimCoflow& c = s.coflow(CoflowId{ci});
      if (!c.released()) continue;
      Bytes brute_sent = 0;
      Bytes brute_ell_max = 0;
      int brute_open = 0;
      for (FlowId fid : c.flows) {
        const SimFlow& f = s.flow(fid);
        const Bytes sent = f.bytes_sent_at(now);
        brute_sent += sent;
        brute_ell_max = std::max(brute_ell_max, sent);
        if (!f.finished()) ++brute_open;
      }
      const double tol = 1e-6 * (1.0 + brute_sent);
      EXPECT_NEAR(s.coflow_bytes_sent(c.id), brute_sent, tol);
      EXPECT_NEAR(s.coflow_ell_max(c.id), brute_ell_max, tol);
      EXPECT_EQ(s.coflow_open_connections(c.id), brute_open);
    }
    for (std::size_t ji = 0; ji < s.job_count(); ++ji) {
      const SimJob& j = s.job(JobId{ji});
      Bytes brute_job = 0;
      for (CoflowId cid : j.coflows) {
        const SimCoflow& c = s.coflow(cid);
        if (!c.released()) continue;
        for (FlowId fid : c.flows) brute_job += s.flow(fid).bytes_sent_at(now);
      }
      EXPECT_NEAR(s.job_bytes_sent(j.id), brute_job, 1e-6 * (1.0 + brute_job));
    }
    ++audits_;
  }
  int audits_ = 0;
};

TEST(EventCalendar, AggregatesMatchBruteForce) {
  // Contended multi-stage workload on a fat-tree: shared endpoints force
  // frequent rate changes (settle/set_rate churn on partial progress), the
  // DAG forces mid-run releases, staggered arrivals force mid-run joins.
  const FatTree fabric(FatTree::Config{4, 100.0});
  AggregateAuditScheduler audit;
  Simulator sim(fabric, audit);

  JobSpec dag;  // stage 1: two coflows; stage 2 depends on both.
  CoflowSpec s1a, s1b, s2;
  s1a.flows = {FlowSpec{0, 8, 300.0}, FlowSpec{1, 8, 120.0}};
  s1b.flows = {FlowSpec{2, 9, 250.0}};
  s2.flows = {FlowSpec{8, 0, 180.0}, FlowSpec{9, 1, 90.0}};
  dag.coflows = {s1a, s1b, s2};
  dag.deps = {{}, {}, {0, 1}};
  sim.submit(dag);

  sim.submit(one_flow_job(500.0, 0, 8, 0.3));   // contends with s1a
  sim.submit(one_flow_job(70.0, 2, 9, 1.1));    // contends with s1b
  sim.submit(one_flow_job(260.0, 8, 1, 2.7));   // contends with s2

  const SimResults r = sim.run();
  EXPECT_EQ(r.jobs.size(), 4u);
  // The audit must actually have run often, including mid-drain instants.
  EXPECT_GT(audit.audits(), 20);
}

// ------------------------------------------------------- cost counters

/// PFS priorities plus a δ coordination tick that never changes them: every
/// tick is an event that must cost the calendar engine no flow work.
class NoOpTickPfsScheduler final : public Scheduler {
 public:
  explicit NoOpTickPfsScheduler(Time delta) : delta_(delta) {}
  [[nodiscard]] std::string name() const override { return "noop-tick-pfs"; }
  [[nodiscard]] Time tick_interval() const override { return delta_; }
  bool on_tick(Time now) override {
    (void)now;
    return false;
  }

 private:
  Time delta_;
};

TEST(EventCalendar, NoOpTicksCostNoFlowTouches) {
  // Disjoint host pairs: completions disturb no other flow, the regime the
  // calendar engine exists for. Adding a δ tick that changes nothing adds
  // events but must not add a single per-flow unit of work, nor move any
  // finish time beyond the completion tolerance: ticks accumulate δ in
  // floating point, and a tick that lands within kByteEpsilon of a
  // completion finishes the flow at the tick's clock value.
  const BigSwitch fabric(BigSwitch::Config{128, 100.0});
  auto run_with = [&](Scheduler& scheduler) {
    Simulator sim(fabric, scheduler);
    sim.submit(disjoint_pairs_job(64, 8));
    return sim.run();
  };
  PfsScheduler pfs;
  const SimResults plain = run_with(pfs);
  NoOpTickPfsScheduler ticking(0.1);
  const SimResults ticked = run_with(ticking);

  EXPECT_GT(plain.flow_touches, 0u);
  EXPECT_EQ(ticked.flow_touches, plain.flow_touches);
  EXPECT_GT(ticked.events, plain.events);
  ASSERT_EQ(ticked.jobs.size(), plain.jobs.size());
  for (std::size_t i = 0; i < plain.jobs.size(); ++i)
    EXPECT_NEAR(ticked.jobs[i].finish, plain.jobs[i].finish, 1e-9);
}

TEST(EventCalendar, CountersAreDeterministic) {
  // Same workload, same scheduler -> bit-identical results and counters
  // (the engine has no hidden iteration-order or timing dependence).
  auto run_once = [] {
    const FatTree fabric(FatTree::Config{4, 100.0});
    GuritaScheduler::Config config;
    config.first_threshold = 75.0;
    config.multiplier = 4.0;
    config.delta = 0.1;
    GuritaScheduler gurita(config);
    Simulator sim(fabric, gurita);
    for (int i = 0; i < 5; ++i)
      sim.submit(one_flow_job(100.0 + 40.0 * i, i, 15 - i, 0.25 * i));
    sim.submit(disjoint_pairs_job(4, 2));
    return sim.run();
  };
  const SimResults a = run_once();
  const SimResults b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.rate_recomputations, b.rate_recomputations);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.flow_touches, b.flow_touches);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_DOUBLE_EQ(a.jobs[i].finish, b.jobs[i].finish);
}

TEST(EventCalendar, CountersArePerRunAndMergeExplicitly) {
  // Cost counters are strictly per-run: the engine only ever writes the
  // SimResults of its own run(), so each run's counters are unaffected by
  // other runs, and pooling them is the explicit merge_counters() fold —
  // sum of counters, max of makespans — in whatever order the caller
  // merges (the parallel runner merges in matrix order).
  auto run_once = [](int flows) {
    const BigSwitch fabric(BigSwitch::Config{16, 100.0});
    PfsScheduler pfs;
    Simulator sim(fabric, pfs);
    sim.submit(disjoint_pairs_job(flows, 2));
    return sim.run();
  };
  const SimResults a = run_once(3);
  const SimResults b = run_once(6);

  // Re-running a does not observe b: per-run isolation.
  const SimResults a2 = run_once(3);
  EXPECT_EQ(a.events, a2.events);
  EXPECT_EQ(a.flow_touches, a2.flow_touches);
  EXPECT_EQ(a.rate_recomputations, a2.rate_recomputations);

  SimResults pooled = a;
  pooled.merge_counters(b);
  EXPECT_EQ(pooled.events, a.events + b.events);
  EXPECT_EQ(pooled.flow_touches, a.flow_touches + b.flow_touches);
  EXPECT_EQ(pooled.rate_recomputations,
            a.rate_recomputations + b.rate_recomputations);
  EXPECT_DOUBLE_EQ(pooled.makespan, std::max(a.makespan, b.makespan));
  // merge_counters leaves populations alone (absorb() re-ids those).
  EXPECT_EQ(pooled.jobs.size(), a.jobs.size());
  EXPECT_EQ(pooled.coflows.size(), a.coflows.size());

  // The registry projection (obs/registry.h) pools as it is written:
  // exporting both runs into one registry must agree with merge_counters
  // exactly (tests/obs_test.cpp covers the summary export at 1/2/8 workers).
  obs::Registry via_merge_counters;
  pooled.export_counters(via_merge_counters);
  obs::Registry via_export;
  a.export_counters(via_export);
  b.export_counters(via_export);
  EXPECT_EQ(via_merge_counters.to_json(), via_export.to_json());
}

// ------------------------------------------- calendar bound and compaction

/// The 80-job mixed trace on a 16-host big switch: a few hundred flows at
/// most, and under Gurita their weights move on every arrival and finish.
std::vector<JobSpec> big_switch_trace() {
  TraceConfig trace;
  trace.num_jobs = 80;
  trace.num_hosts = 16;
  trace.seed = 7;
  return generate_trace(trace);
}

const std::vector<std::string>& batch_schedulers() {
  static const std::vector<std::string> names = {"pfs", "baraat", "stream",
                                                 "aalo", "gurita"};
  return names;
}

TEST(EventCalendar, SizeNeverExceedsActiveFlows) {
  // A rate change re-keys the flow's one entry and a finish erases it, so
  // the calendar holds at most one entry per active flow at every pause,
  // however often the scheduler re-weights.
  const BigSwitch fabric(BigSwitch::Config{16});
  const std::vector<JobSpec> jobs = big_switch_trace();
  for (const std::string& name : batch_schedulers()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Scheduler> sched = make_scheduler(name);
    Simulator sim(fabric, *sched);
    for (const JobSpec& job : jobs) sim.submit(job);
    std::size_t pauses = 0;
    std::size_t peak = 0;
    for (Time bound = 0.25; sim.run_to(bound); bound += 0.25) {
      ++pauses;
      peak = std::max(peak, sim.calendar_size());
      ASSERT_LE(sim.calendar_size(), sim.active_flow_count())
          << "at t=" << sim.now();
    }
    EXPECT_GT(pauses, 10u);
    EXPECT_GT(peak, 0u);
    EXPECT_EQ(sim.run().jobs.size(), jobs.size());
  }
}

/// A run of `jobs` under `name`, in one piece or, when `compact` is set,
/// paused after every 5 s slice and compacted at each pause. `jobs` holds
/// every job's result by original id: each compaction's monotone
/// renumbering is mapped back.
struct SlicedRun {
  SimResults results;
  std::vector<SimResults::JobResult> jobs;
  std::size_t evicted = 0;
  /// Flows parked or backing off at the compactions, summed over them.
  std::size_t waiting_at_compaction = 0;
};

SlicedRun run_sliced(const Fabric& fabric, const std::vector<JobSpec>& jobs,
                     const std::string& name, const Simulator::Config& config,
                     bool compact) {
  const std::unique_ptr<Scheduler> sched = make_scheduler(name);
  Simulator sim(fabric, *sched, config);
  for (const JobSpec& job : jobs) sim.submit(job);
  SlicedRun run;
  run.jobs.resize(jobs.size());
  // `live` maps the engine's current job ids to original ids.
  std::vector<std::size_t> live(jobs.size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
  for (Time bound = 5.0; compact && sim.run_to(bound); bound += 5.0) {
    for (std::size_t i = 0; i < sim.state().flow_count(); ++i) {
      const SimFlow& f = sim.state().flow(FlowId{i});
      if (!f.finished() && !f.cancelled && f.abort_time >= 0)
        ++run.waiting_at_compaction;
    }
    const Simulator::Compaction c = sim.compact();
    std::vector<char> gone(live.size(), 0);
    for (const SimResults::JobResult& j : c.jobs) {
      run.jobs[live[j.id.value()]] = j;
      gone[j.id.value()] = 1;
    }
    std::size_t w = 0;
    for (std::size_t i = 0; i < live.size(); ++i)
      if (gone[i] == 0) live[w++] = live[i];
    live.resize(w);
    run.evicted += c.jobs_evicted;
  }
  run.results = sim.run();
  for (const SimResults::JobResult& j : run.results.jobs)
    run.jobs[live[j.id.value()]] = j;
  return run;
}

TEST(EventCalendar, CompactionKeepsEveryCounter) {
  // BigSwitch routes ignore the flow id, so compaction's renumbering cannot
  // re-route anything: a run compacted after every 5 s slice must match the
  // uncompacted run in every finish time and every cost counter.
  const BigSwitch fabric(BigSwitch::Config{16});
  const std::vector<JobSpec> jobs = big_switch_trace();
  for (const std::string& name : batch_schedulers()) {
    SCOPED_TRACE(name);
    const SlicedRun plain = run_sliced(fabric, jobs, name, {}, false);
    const SlicedRun compacted = run_sliced(fabric, jobs, name, {}, true);
    EXPECT_GT(compacted.evicted, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(compacted.jobs[i].finish, plain.jobs[i].finish) << "job " << i;
    EXPECT_EQ(compacted.results.events, plain.results.events);
    EXPECT_EQ(compacted.results.flow_touches, plain.results.flow_touches);
    EXPECT_EQ(compacted.results.rate_recomputations,
              plain.results.rate_recomputations);
  }
}

TEST(EventCalendar, CompactionUnderFaults) {
  // The same comparison under a fault plan, so compaction renumbers the
  // retry calendar and the parking lot while flows wait in them, and
  // evicts jobs that failed with flows still parked or backing off.
  // Jitter is 0 because RetryPolicy::delay seeds the jitter with the flow
  // id, which compaction renumbers: with jitter on, a flow's backoff would
  // depend on the compaction cadence, the same id-keyed hazard as ECMP.
  const BigSwitch fabric(BigSwitch::Config{16});
  const std::vector<JobSpec> jobs = big_switch_trace();
  FaultPlanConfig plan;
  plan.host_crash_rate = 3.0;
  plan.horizon = 30.0;
  plan.mean_downtime = 1.0;
  plan.retry.jitter = 0.0;
  plan.retry.max_attempts = 2;
  Simulator::Config config;
  config.faults = generate_fault_plan(plan, 3, fabric.num_hosts(),
                                      fabric.topology().link_count());
  for (const std::string& name : batch_schedulers()) {
    SCOPED_TRACE(name);
    const SlicedRun plain = run_sliced(fabric, jobs, name, config, false);
    const SlicedRun compacted = run_sliced(fabric, jobs, name, config, true);
    EXPECT_GT(compacted.evicted, 0u);
    EXPECT_GT(compacted.waiting_at_compaction, 0u);
    EXPECT_GT(plain.results.failed_jobs, 20u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(compacted.jobs[i].finish, plain.jobs[i].finish) << "job " << i;
      EXPECT_EQ(compacted.jobs[i].failed, plain.jobs[i].failed) << "job " << i;
    }
    EXPECT_EQ(compacted.results.events, plain.results.events);
    EXPECT_EQ(compacted.results.flow_touches, plain.results.flow_touches);
    EXPECT_EQ(compacted.results.flow_aborts, plain.results.flow_aborts);
    EXPECT_EQ(compacted.results.flow_retries, plain.results.flow_retries);
    EXPECT_EQ(compacted.results.failed_jobs, plain.results.failed_jobs);
  }
}

}  // namespace
}  // namespace gurita
