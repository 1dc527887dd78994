// Tests for the network-level lower bounds (src/bound/).
//
// Two families: hand-computed instances where a bound is provably *tight*
// (so the exact value is asserted, not just soundness), and a randomized
// soundness corpus replaying every registry scheduler — with and without
// fault injection — and checking bound <= achieved in every report cell.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bound/bound.h"
#include "bound/gap.h"
#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"
#include "seeded_comparison.h"

namespace gurita {
namespace {

// ------------------------------------------------------------------ SRPT

TEST(Srpt, EmptyAndSingleJob) {
  EXPECT_DOUBLE_EQ(srpt_total_flow_time({}), 0.0);
  // One job released at 2 with 3s of work: flow time is its own length.
  EXPECT_DOUBLE_EQ(srpt_total_flow_time({{2.0, 3.0}}), 3.0);
}

TEST(Srpt, PreemptsForShorterArrival) {
  // A(release 0, work 4), B(release 1, work 1). SRPT preempts A at t=1,
  // finishes B at 2 (flow 1), resumes A to 5 (flow 5): total 6. Any
  // non-preemptive order is worse (A-first: 4 + 4 = 8).
  EXPECT_DOUBLE_EQ(srpt_total_flow_time({{0.0, 4.0}, {1.0, 1.0}}), 6.0);
}

TEST(Srpt, BatchCollapsesToSjf) {
  // Batch release: SRPT = SJF. Completions 1, 3, 6 -> total 10.
  EXPECT_DOUBLE_EQ(
      srpt_total_flow_time({{0.0, 1.0}, {0.0, 2.0}, {0.0, 3.0}}), 10.0);
  // Input order must not matter.
  EXPECT_DOUBLE_EQ(
      srpt_total_flow_time({{0.0, 3.0}, {0.0, 1.0}, {0.0, 2.0}}), 10.0);
}

TEST(Srpt, IdleGapBetweenReleases) {
  // Work of 1 at t=0, then nothing until t=10: the machine idles, and the
  // second job's flow time restarts from its own release.
  EXPECT_DOUBLE_EQ(srpt_total_flow_time({{0.0, 1.0}, {10.0, 2.0}}), 3.0);
}

// ------------------------------------------- hand-computed tight instances

/// One coflow of single-flow transfers; sizes[i] goes src -> dst pairs[i].
CoflowSpec coflow_of(
    const std::vector<std::pair<std::pair<int, int>, Bytes>>& flows) {
  CoflowSpec c;
  for (const auto& [hosts, bytes] : flows) {
    FlowSpec f;
    f.src_host = hosts.first;
    f.dst_host = hosts.second;
    f.size = bytes;
    c.flows.push_back(f);
  }
  return c;
}

TEST(PortLoadBound, FanOutBottlenecksOnTheSenderUplink) {
  // One job, one coflow: host 0 sends 200 B to host 1 and 300 B to host 2
  // at 100 B/s. The sender uplink carries 500 B -> 5 s; each receiver
  // downlink carries less. The bound is exactly 5 s.
  JobSpec job;
  job.coflows.push_back(coflow_of({{{0, 1}, 200.0}, {{0, 2}, 300.0}}));
  job.deps = {{}};

  const BoundAnalysis analysis({job}, /*num_hosts=*/3, /*capacity=*/100.0);
  ASSERT_EQ(analysis.jobs().size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.jobs()[0].critical_path, 5.0);
  EXPECT_DOUBLE_EQ(analysis.port_load_bound(), 5.0);
  EXPECT_DOUBLE_EQ(analysis.ordering_bound(), 5.0);
  EXPECT_DOUBLE_EQ(analysis.average_jct_bound(), 5.0);
}

TEST(PortLoadBound, DagChainsAsACriticalPath) {
  // coflow 0 (2 s on hosts 0->1) then coflow 1 (4 s on hosts 2->3): no
  // port is shared, but the dependency forces 2 + 4 = 6 s. The per-port
  // SRPT relaxation alone would only see 4 s — the DAG term dominates.
  JobSpec job;
  job.coflows.push_back(coflow_of({{{0, 1}, 200.0}}));
  job.coflows.push_back(coflow_of({{{2, 3}, 400.0}}));
  job.deps = {{}, {0}};

  const BoundAnalysis analysis({job}, /*num_hosts=*/4, /*capacity=*/100.0);
  EXPECT_DOUBLE_EQ(analysis.jobs()[0].critical_path, 6.0);
  EXPECT_DOUBLE_EQ(analysis.average_jct_bound(), 6.0);
}

TEST(PortLoadBound, ParallelChainsTakeTheLongestBranch) {
  // coflows 0 (2 s) and 1 (3 s) independent, coflow 2 (1 s) joins them:
  // critical path max(2, 3) + 1 = 4 s.
  JobSpec job;
  job.coflows.push_back(coflow_of({{{0, 1}, 200.0}}));
  job.coflows.push_back(coflow_of({{{2, 3}, 300.0}}));
  job.coflows.push_back(coflow_of({{{4, 5}, 100.0}}));
  job.deps = {{}, {}, {0, 1}};

  const BoundAnalysis analysis({job}, /*num_hosts=*/6, /*capacity=*/100.0);
  EXPECT_DOUBLE_EQ(analysis.jobs()[0].critical_path, 4.0);
  EXPECT_DOUBLE_EQ(analysis.port_load_bound(), 4.0);
}

/// Three single-flow jobs contending on the same 0 -> 1 pair, batch
/// arrivals, sizes 100/200/300 B at 100 B/s.
std::vector<JobSpec> contended_batch() {
  std::vector<JobSpec> jobs;
  for (const Bytes size : {100.0, 200.0, 300.0}) {
    JobSpec job;
    job.coflows.push_back(coflow_of({{{0, 1}, size}}));
    job.deps = {{}};
    jobs.push_back(job);
  }
  return jobs;
}

TEST(OrderingBound, SharedPortBatchIsSjfTight) {
  // Per-job critical paths are 1/2/3 s -> port-load bound 2 s. The shared
  // uplink forces SJF completions 1, 3, 6 -> ordering bound 10/3 s, which
  // dominates, and serving the jobs shortest first achieves exactly that,
  // so the bound is tight.
  const BoundAnalysis analysis(contended_batch(), /*num_hosts=*/2,
                               /*capacity=*/100.0);
  EXPECT_DOUBLE_EQ(analysis.port_load_bound(), 2.0);
  EXPECT_DOUBLE_EQ(analysis.ordering_bound(), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(analysis.average_jct_bound(), 10.0 / 3.0);
}

TEST(OrderingBound, SubsetRestrictionStaysExact) {
  const BoundAnalysis analysis(contended_batch(), /*num_hosts=*/2,
                               /*capacity=*/100.0);
  // Only the 200 B job: alone on the port, its bound is its own 2 s.
  EXPECT_DOUBLE_EQ(analysis.average_jct_bound({false, true, false}), 2.0);
  // Jobs 0 and 2: SRPT completions 1 and 4 -> (1 + 4) / 2.
  EXPECT_DOUBLE_EQ(analysis.average_jct_bound({true, false, true}), 2.5);
  // Empty subset is defined as 0.
  EXPECT_DOUBLE_EQ(analysis.average_jct_bound({false, false, false}), 0.0);
}

TEST(OrderingBound, ReleaseDatesEnterTheRelaxation) {
  // A: 300 B at t=0, B: 100 B at t=1, same port. SRPT preempts A for B
  // (B flows 1 s, A flows 4 s) -> sum 5, bound 2.5 s; the critical-path
  // bound alone would only give (3 + 1) / 2 = 2 s.
  std::vector<JobSpec> jobs = contended_batch();
  jobs.resize(2);
  jobs[0].coflows[0].flows[0].size = 300.0;
  jobs[1].coflows[0].flows[0].size = 100.0;
  jobs[1].arrival_time = 1.0;

  const BoundAnalysis analysis(jobs, /*num_hosts=*/2, /*capacity=*/100.0);
  EXPECT_DOUBLE_EQ(analysis.port_load_bound(), 2.0);
  EXPECT_DOUBLE_EQ(analysis.average_jct_bound(), 2.5);
}

// ------------------------------------------------------ soundness corpus

/// Draws one randomized experiment the way the differential harness does:
/// a small fat-tree, a random trace shape, and faults on ~30% of trials.
ExperimentConfig draw_config(std::uint64_t seed) {
  Rng rng(seed);
  ExperimentConfig config;
  config.fat_tree_k = 4;  // 16 hosts; corpus scale
  config.trace.num_jobs = static_cast<int>(rng.uniform_int(3, 10));
  config.trace.structure = static_cast<StructureKind>(rng.uniform_int(0, 2));
  config.trace.arrivals = rng.next_double() < 0.5 ? ArrivalPattern::kPoisson
                                                  : ArrivalPattern::kBursty;
  config.trace.mean_interarrival = rng.uniform(1.0, 50.0) * kMillisecond;
  config.trace.burst_size = static_cast<int>(rng.uniform_int(2, 6));
  config.trace.max_width = static_cast<int>(rng.uniform_int(2, 16));
  config.trace.width_pareto_alpha = rng.uniform(0.8, 2.0);
  config.trace.flow_skew_sigma = rng.uniform(0.2, 1.5);
  config.trace.stage_skew_sigma = rng.uniform(0.5, 2.0);
  config.trace.seed = rng.next_u64();

  // Faults only *slow* a run (crash/flap/straggle at nominal-or-lower
  // capacity), so the bound must hold on faulty runs too — including ones
  // with failed jobs, which the report masks out on both sides.
  if (rng.next_double() < 0.3) {
    config.faults.enabled = true;
    config.faults.plan.host_crash_rate = rng.uniform(0.5, 3.0);
    config.faults.plan.link_flap_rate = rng.uniform(0.0, 2.0);
    config.faults.plan.straggler_rate = rng.uniform(0.0, 4.0);
    config.faults.plan.state_loss_rate = rng.uniform(0.0, 1.0);
    // A stingy retry budget on some faulty trials abandons jobs, so the
    // corpus exercises the report's failed-job masking path too.
    if (rng.next_double() < 0.5) config.faults.plan.retry.max_attempts = 1;
  }
  return config;
}

/// The exact workload compare_schedulers replays (same fabric sizing).
std::vector<JobSpec> workload_of(const ExperimentConfig& config) {
  const FatTree fabric(
      FatTree::Config{config.fat_tree_k, config.link_capacity});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  return generate_trace(trace);
}

TEST(BoundSoundness, CorpusOfRandomRunsNeverBeatsTheBound) {
  int faulty_trials = 0;
  int masked_cells = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ExperimentConfig config = draw_config(seed);
    const std::vector<JobSpec> jobs = workload_of(config);
    const ComparisonResult result =
        compare_schedulers(config, scheduler_names());

    std::vector<std::pair<std::string, const SimResults*>> achieved;
    for (const std::string& name : scheduler_names())
      achieved.emplace_back(name, &result.results.at(name));
    const FatTree fabric(
        FatTree::Config{config.fat_tree_k, config.link_capacity});
    const GapReport checked = make_gap_report(
        "corpus", jobs, fabric.num_hosts(), config.link_capacity, achieved);
    ASSERT_TRUE(checked.sound()) << "unsound bound at corpus seed " << seed;

    if (config.faults.enabled) ++faulty_trials;
    for (const SchedulerGap& s : checked.schedulers) {
      EXPECT_GE(s.overall.gap(), 1.0 - 1e-9)
          << s.scheduler << " at corpus seed " << seed;
      if (s.overall.jobs < jobs.size()) ++masked_cells;
    }
  }
  // The corpus must actually exercise the fault path and the failed-job
  // masking, or the soundness claim above is weaker than advertised.
  EXPECT_GE(faulty_trials, 30);
  EXPECT_GE(masked_cells, 1);
}

// -------------------------------------------------------------- gap report

TEST(GapReport, MasksFailedJobsPerScheduler) {
  // Two schedulers over a 3-job workload; scheduler "b" failed job 1. Its
  // cells must cover only jobs 0 and 2, and the bound must restrict too.
  const std::vector<JobSpec> jobs = contended_batch();
  SimResults a, b;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SimResults::JobResult r;
    r.id = JobId{i};
    r.arrival = jobs[i].arrival_time;
    r.finish = r.arrival + 10.0;  // comfortably above any bound
    r.total_bytes = jobs[i].total_bytes();
    a.jobs.push_back(r);
    if (i == 1) r.failed = true;
    b.jobs.push_back(r);
  }

  const GapReport report = make_gap_report(
      "masking", jobs, /*num_hosts=*/2, /*capacity=*/100.0,
      {{"a", &a}, {"b", &b}});
  ASSERT_EQ(report.schedulers.size(), 2u);
  EXPECT_EQ(report.schedulers[0].overall.jobs, 3u);
  EXPECT_EQ(report.schedulers[1].overall.jobs, 2u);
  // a sees the full batch (SJF bound 10/3); b only jobs 0 and 2 (2.5).
  EXPECT_DOUBLE_EQ(report.schedulers[0].overall.bound, 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.schedulers[1].overall.bound, 2.5);
  EXPECT_TRUE(report.sound());
}

TEST(GapReport, JsonIsDeterministicAndCarriesTheScenario) {
  const std::vector<JobSpec> jobs = contended_batch();
  SimResults res;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SimResults::JobResult r;
    r.id = JobId{i};
    r.finish = 8.0;
    r.total_bytes = jobs[i].total_bytes();
    res.jobs.push_back(r);
  }
  const GapReport report = make_gap_report("unit", jobs, 2, 100.0,
                                           {{"solo", &res}});
  const std::string json = report.to_json();
  EXPECT_EQ(json, report.to_json());
  EXPECT_NE(json.find("\"scenario\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\": \"solo\""), std::string::npos);
  EXPECT_NE(json.find("\"narrow\""), std::string::npos);
  EXPECT_NE(json.find("\"wide\""), std::string::npos);
  EXPECT_FALSE(report.to_table().empty());
}

TEST(GapReport, BestIsTheLowestAchievedAverage) {
  // "fast" finishes every job 4 s after arrival, "slow" 9 s: the best
  // achieved average is fast's, and an empty report has none.
  const std::vector<JobSpec> jobs = contended_batch();
  SimResults slow, fast;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SimResults::JobResult r;
    r.id = JobId{i};
    r.total_bytes = jobs[i].total_bytes();
    r.finish = 9.0;
    slow.jobs.push_back(r);
    r.finish = 4.0;
    fast.jobs.push_back(r);
  }
  const GapReport report = make_gap_report(
      "best", jobs, 2, 100.0, {{"slow", &slow}, {"fast", &fast}});
  ASSERT_NE(report.best(), nullptr);
  EXPECT_EQ(report.best()->scheduler, "fast");
  EXPECT_DOUBLE_EQ(report.best()->overall.achieved, 4.0);
  EXPECT_EQ(GapReport{}.best(), nullptr);
}

// The gap pipeline rides on pooled parallel runs: the report over a
// sharded multi-seed comparison must be byte-identical at any worker
// count (the repo-wide determinism contract extended to src/bound/).
TEST(BoundDeterminism, GapReportByteIdenticalAcrossWorkerCounts) {
  ExperimentConfig config = trace_scenario(StructureKind::kFbTao, 12, 5);
  config.fat_tree_k = 4;
  const std::vector<std::string> names = {"gurita", "stream", "baraat"};
  constexpr int kSeeds = 3;

  // The pooled populations concatenate in replicate order; rebuild the
  // matching concatenated workload (legacy schedule: seed, seed+1, ...).
  std::vector<JobSpec> jobs;
  const FatTree fabric(
      FatTree::Config{config.fat_tree_k, config.link_capacity});
  for (int s = 0; s < kSeeds; ++s) {
    TraceConfig trace = config.trace;
    trace.seed += static_cast<std::uint64_t>(s);
    trace.num_hosts = fabric.num_hosts();
    const std::vector<JobSpec> one = generate_trace(trace);
    jobs.insert(jobs.end(), one.begin(), one.end());
  }

  const auto fingerprint = [&](int workers) {
    const ComparisonResult pooled =
        compare_schedulers_seeds(config, names, kSeeds, workers);
    std::vector<std::pair<std::string, const SimResults*>> achieved;
    for (const std::string& name : names)
      achieved.emplace_back(name, &pooled.results.at(name));
    return make_gap_report("det", jobs, fabric.num_hosts(),
                           config.link_capacity, achieved)
        .to_json();
  };

  const std::string serial = fingerprint(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, fingerprint(2));
  EXPECT_EQ(serial, fingerprint(8));
}

}  // namespace
}  // namespace gurita
