// Differential test: the shipped BaraatScheduler, which walks an ordered
// view of its live jobs, against the active-sort oracle (baraat_oracle.h),
// which sorts the jobs of every active flow on every allocation. Over
// randomized traces both must give every running coflow the same (tier,
// weight) after every allocation and produce the same results and
// structured traces — under job failures and scheduler state loss, across
// compactions, and across checkpoint -> fresh-simulator restores (including
// a snapshot the oracle wrote, restored into the shipped policy).
//
// Failures print the trace seed for standalone reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baraat_oracle.h"
#include "common/rng.h"
#include "fault/plan.h"
#include "flowsim/simulator.h"
#include "obs/trace.h"
#include "same_results.h"
#include "sched/baraat.h"
#include "snapshot/snapshot.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

/// One running coflow's priority as one allocation read it.
struct PriorityEntry {
  std::uint64_t allocation = 0;
  std::uint64_t coflow = 0;
  Tier tier = 0;
  std::uint64_t weight_bits = 0;
  bool operator==(const PriorityEntry&) const = default;
};

/// Forwards every hook to `inner` and, after each assign(), records the
/// priority of every coflow with an open flow — the values the allocation
/// that follows reads.
class PriorityLog final : public Scheduler {
 public:
  explicit PriorityLog(Scheduler& inner) : inner_(inner) {}

  std::vector<PriorityEntry> log;

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void attach(const SimState& state) override {
    Scheduler::attach(state);
    inner_.attach(state);
  }
  void on_job_arrival(const SimJob& job, Time now) override {
    inner_.on_job_arrival(job, now);
  }
  void on_coflow_release(const SimCoflow& coflow, Time now) override {
    inner_.on_coflow_release(coflow, now);
  }
  void on_flow_finish(const SimFlow& flow, Time now) override {
    inner_.on_flow_finish(flow, now);
  }
  void on_coflow_finish(const SimCoflow& coflow, Time now) override {
    inner_.on_coflow_finish(coflow, now);
  }
  void on_job_finish(const SimJob& job, Time now) override {
    inner_.on_job_finish(job, now);
  }
  void on_fault(const FaultEvent& event, Time now) override {
    inner_.on_fault(event, now);
  }
  void on_recover(const FaultEvent& event, Time now) override {
    inner_.on_recover(event, now);
  }
  void on_job_fail(const SimJob& job, Time now) override {
    inner_.on_job_fail(job, now);
  }
  void on_compact(const CompactionRemap& remap) override {
    inner_.on_compact(remap);
  }
  [[nodiscard]] Time tick_interval() const override {
    return inner_.tick_interval();
  }
  bool on_tick(Time now) override { return inner_.on_tick(now); }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    inner_.assign(now, active);
    for (std::size_t c = 0; c < state().coflow_count(); ++c) {
      const CoflowId id{c};
      if (state().coflow_open_connections(id) == 0) continue;
      const SimCoflow& coflow = state().coflow(id);
      log.push_back({allocations_, c, coflow.tier, bits(coflow.weight)});
    }
    ++allocations_;
  }
  void save_state(snapshot::Writer& w) const override {
    inner_.save_state(w);
  }
  void load_state(snapshot::Reader& r) override { inner_.load_state(r); }
  void set_trace_recorder(obs::TraceRecorder* recorder) override {
    Scheduler::set_trace_recorder(recorder);
    inner_.set_trace_recorder(recorder);
  }

 private:
  Scheduler& inner_;
  std::uint64_t allocations_ = 0;
};

/// Which Baraat runs a simulation.
enum class Policy { kShipped, kOracle };

std::unique_ptr<Scheduler> make_policy(Policy policy,
                                       const BaraatScheduler::Config& config) {
  if (policy == Policy::kShipped)
    return std::make_unique<BaraatScheduler>(config);
  return std::make_unique<test::BaraatActiveSortOracle>(config);
}

struct Trial {
  std::unique_ptr<Fabric> fabric;
  std::vector<JobSpec> jobs;
  BaraatScheduler::Config config;
  Simulator::Config sim_config;
};

/// A random fabric and trace, a multiplexing level of 1-4 and a heavy
/// threshold inside the range of the trace's job sizes, so heavy marks
/// fire and let later jobs through.
Trial draw_trial(std::uint64_t seed) {
  Rng rng(seed);
  Trial trial;
  if (rng.next_double() < 0.5) {
    trial.fabric = std::make_unique<BigSwitch>(
        BigSwitch::Config{static_cast<int>(rng.uniform_int(8, 24))});
  } else {
    FatTree::Config ft;
    ft.k = 4;
    ft.ecmp_salt = rng.next_u64();
    trial.fabric = std::make_unique<FatTree>(ft);
  }
  TraceConfig trace;
  trace.num_jobs = static_cast<int>(rng.uniform_int(8, 30));
  trace.num_hosts = trial.fabric->num_hosts();
  trace.structure = static_cast<StructureKind>(rng.uniform_int(0, 2));
  trace.arrivals = rng.next_double() < 0.5 ? ArrivalPattern::kPoisson
                                           : ArrivalPattern::kBursty;
  trace.mean_interarrival = rng.uniform(1.0, 30.0) * kMillisecond;
  trace.burst_size = static_cast<int>(rng.uniform_int(2, 8));
  trace.max_width = static_cast<int>(rng.uniform_int(2, 12));
  trace.seed = rng.next_u64();
  trial.jobs = generate_trace(trace);

  std::vector<Bytes> totals;
  for (const JobSpec& job : trial.jobs) {
    Bytes total = 0;
    for (const CoflowSpec& c : job.coflows)
      for (const FlowSpec& f : c.flows) total += f.size;
    totals.push_back(total);
  }
  std::sort(totals.begin(), totals.end());
  trial.config.base_multiplexing = static_cast<int>(rng.uniform_int(1, 4));
  trial.config.heavy_threshold =
      totals[rng.uniform_int(0, totals.size() - 1)] * rng.uniform(0.1, 0.9);
  return trial;
}

/// Adds host crashes (with a retry budget of 2, so jobs fail) and
/// scheduler state losses over `horizon`.
void add_faults(Trial& trial, std::uint64_t seed, Time horizon) {
  FaultPlanConfig plan;
  plan.host_crash_rate = 4.0 / horizon;
  plan.state_loss_rate = 4.0 / horizon;
  plan.horizon = horizon;
  plan.mean_downtime = horizon / 20;
  plan.retry.max_attempts = 2;
  trial.sim_config.faults =
      generate_fault_plan(plan, seed, trial.fabric->num_hosts(),
                          trial.fabric->topology().link_count());
}

/// One simulation of `trial` under `policy`, with its priority log, its
/// trace and the jobs each compaction evicted.
struct BaraatRun {
  std::unique_ptr<Scheduler> policy;
  std::unique_ptr<PriorityLog> logged;
  obs::TraceRecorder recorder{obs::TraceRecorder::kAllKinds};
  std::unique_ptr<Simulator> sim;
  std::vector<SimResults::JobResult> evicted;

  /// Builds the simulator; with `restore_from` non-empty it is rebuilt from
  /// that snapshot, as a restarted process would be.
  BaraatRun(const Trial& trial, Policy p, const std::string& restore_from = "")
      : policy(make_policy(p, trial.config)),
        logged(std::make_unique<PriorityLog>(*policy)) {
    Simulator::Config config = trial.sim_config;
    config.trace = &recorder;
    sim = std::make_unique<Simulator>(*trial.fabric, *logged, config);
    for (const JobSpec& job : trial.jobs) sim->submit(job);
    if (!restore_from.empty()) {
      snapshot::Reader r(restore_from);
      sim->restore(r);
    }
  }

  /// Runs to the end, compacting after every `compact_every` seconds of
  /// simulated time when it is positive.
  SimResults finish(Time compact_every = 0) {
    for (Time bound = compact_every; compact_every > 0 && sim->run_to(bound);
         bound += compact_every) {
      Simulator::Compaction c = sim->compact();
      evicted.insert(evicted.end(), c.jobs.begin(), c.jobs.end());
    }
    SimResults results = sim->run();
    results.trace = recorder.take();
    return results;
  }

  std::string checkpoint_at(Time split) {
    (void)sim->run_to(split);
    snapshot::Writer w;
    sim->checkpoint(w);
    return w.take();
  }
};

std::size_t count_kind(const SimResults& r, obs::TraceEventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(r.trace.begin(), r.trace.end(),
                    [&](const obs::TraceRecord& t) { return t.kind == kind; }));
}

void expect_same_log(const std::vector<PriorityEntry>& shipped,
                     const std::vector<PriorityEntry>& oracle) {
  ASSERT_FALSE(oracle.empty());
  const auto [a, b] = std::mismatch(shipped.begin(), shipped.end(),
                                    oracle.begin(), oracle.end());
  if (a == shipped.end() && b == oracle.end()) return;
  if (a == shipped.end() || b == oracle.end()) {
    FAIL() << "priority logs differ in length: " << shipped.size() << " vs "
           << oracle.size();
  }
  FAIL() << "allocation " << b->allocation << ", coflow " << b->coflow
         << ": shipped tier " << a->tier << " (coflow " << a->coflow
         << ") vs oracle tier " << b->tier;
}

/// Coverage pooled over a test's trials, so each test can assert that the
/// paths it claims to exercise were reached.
struct Coverage {
  std::size_t heavy_marks = 0;
  std::size_t failed_jobs = 0;
  std::size_t state_losses = 0;
  std::size_t evicted = 0;
};

constexpr std::uint64_t kTrials = 24;

TEST(BaraatOracle, PrioritiesMatchEveryAllocation) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
    Trial trial = draw_trial(seed);
    BaraatRun oracle(trial, Policy::kOracle);
    const SimResults want = oracle.finish();
    BaraatRun shipped(trial, Policy::kShipped);
    const SimResults got = shipped.finish();
    expect_same_results(got, want);
    expect_same_log(shipped.logged->log, oracle.logged->log);
    cov.heavy_marks += count_kind(want, obs::TraceEventKind::kHeavyMark);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(cov.heavy_marks, 0u);
}

TEST(BaraatOracle, PrioritiesMatchUnderJobFailuresAndStateLoss) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
    Trial trial = draw_trial(seed);
    const Time makespan = BaraatRun(trial, Policy::kOracle).finish().makespan;
    add_faults(trial, seed, makespan);
    BaraatRun oracle(trial, Policy::kOracle);
    const SimResults want = oracle.finish();
    BaraatRun shipped(trial, Policy::kShipped);
    const SimResults got = shipped.finish();
    expect_same_results(got, want);
    expect_same_log(shipped.logged->log, oracle.logged->log);
    cov.failed_jobs += want.failed_jobs;
    for (const FaultEvent& e : trial.sim_config.faults.events)
      if (e.kind == FaultKind::kSchedulerStateLoss && e.time < want.makespan)
        ++cov.state_losses;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(cov.failed_jobs, 0u);
  EXPECT_GT(cov.state_losses, 0u);
}

TEST(BaraatOracle, PrioritiesMatchAcrossCompactions) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
    Trial trial = draw_trial(seed);
    const Time makespan = BaraatRun(trial, Policy::kOracle).finish().makespan;
    if (seed % 2 == 0) add_faults(trial, seed, makespan);
    const Time every = makespan / 7;
    BaraatRun oracle(trial, Policy::kOracle);
    const SimResults want = oracle.finish(every);
    BaraatRun shipped(trial, Policy::kShipped);
    const SimResults got = shipped.finish(every);
    expect_same_results(got, want);
    expect_same_log(shipped.logged->log, oracle.logged->log);
    ASSERT_EQ(shipped.evicted.size(), oracle.evicted.size());
    for (std::size_t i = 0; i < oracle.evicted.size(); ++i) {
      EXPECT_EQ(shipped.evicted[i].id, oracle.evicted[i].id);
      EXPECT_EQ(bits(shipped.evicted[i].finish),
                bits(oracle.evicted[i].finish));
      EXPECT_EQ(shipped.evicted[i].failed, oracle.evicted[i].failed);
    }
    cov.evicted += oracle.evicted.size();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(cov.evicted, 0u);
}

TEST(BaraatOracle, RestoreSplitsMatchOracleRun) {
  // Each split checkpoints one simulator and finishes in a fresh one built
  // from the same inputs: shipped -> shipped, and oracle -> shipped, whose
  // restore must rebuild the FIFO view from the oracle's tables alone.
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
    Trial trial = draw_trial(seed);
    const Time makespan = BaraatRun(trial, Policy::kOracle).finish().makespan;
    if (seed % 2 == 0) add_faults(trial, seed, makespan);
    const SimResults want = BaraatRun(trial, Policy::kOracle).finish();
    for (const double at : {0.2, 0.5, 0.8}) {
      SCOPED_TRACE("split at " + std::to_string(at) + " of the makespan");
      for (const Policy before : {Policy::kShipped, Policy::kOracle}) {
        const std::string bytes =
            BaraatRun(trial, before).checkpoint_at(want.makespan * at);
        BaraatRun after(trial, Policy::kShipped, bytes);
        expect_same_results(after.finish(), want);
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace gurita
