// Determinism regression tests for the parallel experiment runner: the
// same experiment matrix executed at 1, 2 and 8 workers must produce
// byte-identical serialized metric reports (hexfloat — every bit of every
// double — not just approximately equal summaries). Plus unit coverage of
// the seed-derivation key and worker-count resolution.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/runner.h"

namespace gurita {
namespace {

/// Serializes everything a pooled comparison carries, with hexfloat
/// doubles so byte-equal strings imply bit-identical results.
std::string serialize_report(const ComparisonResult& result) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [name, r] : result.results) {
    os << name << " makespan=" << r.makespan << " events=" << r.events
       << " recomputes=" << r.rate_recomputations
       << " touches=" << r.flow_touches << "\n";
    for (const SimResults::JobResult& j : r.jobs)
      os << "  job " << j.id << " arrival=" << j.arrival
         << " finish=" << j.finish << " bytes=" << j.total_bytes << "\n";
    for (const SimResults::CoflowResult& c : r.coflows)
      os << "  coflow " << c.id << " job=" << c.job
         << " release=" << c.release << " finish=" << c.finish << "\n";
    const JctCollector& collector = result.collectors.at(name);
    os << "  jct avg=" << collector.average_jct()
       << " p95=" << collector.p95_jct() << " n=" << collector.total_jobs();
    for (int cat = 0; cat < 7; ++cat)
      os << " cat" << cat << "=" << collector.average_jct(cat) << "/"
         << collector.jobs(cat);
    os << "\n";
  }
  return os.str();
}

std::string serialize_reports(const std::vector<ComparisonResult>& pooled) {
  std::string out;
  for (const ComparisonResult& r : pooled) out += serialize_report(r);
  return out;
}

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.experiment = "parallel_runner_test";
  sweep.configs = {trace_scenario(StructureKind::kTpcDs, 6, 21),
                   trace_scenario(StructureKind::kFbTao, 5, 22)};
  sweep.schedulers = {"gurita", "aalo", "pfs"};
  sweep.replicates = 4;
  return sweep;
}

// The tentpole's headline guarantee: the full sweep — 2 configs x 4
// replicates x 3 schedulers — serializes to the same bytes at every worker
// count, including oversubscribed (more workers than this machine has
// cores, and more than there are runs per config).
TEST(ParallelRunnerTest, SweepReportsAreByteIdenticalAcrossWorkerCounts) {
  const std::string serial = serialize_reports(run_sweep(small_sweep(), 1));
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 2)), serial);
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 8)), serial);
}

TEST(ParallelRunnerTest, MatrixReportsAreByteIdenticalAcrossWorkerCounts) {
  std::vector<ExperimentRun> runs;
  for (int i = 0; i < 5; ++i) {
    ExperimentRun run;
    run.label = "cell " + std::to_string(i);
    run.config = trace_scenario(StructureKind::kMixed, 4 + i, 100 + i);
    run.schedulers = {"gurita", "baraat"};
    runs.push_back(run);
  }
  const std::string serial = serialize_reports(run_matrix(runs, 1));
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serialize_reports(run_matrix(runs, 2)), serial);
  EXPECT_EQ(serialize_reports(run_matrix(runs, 8)), serial);
}

// compare_schedulers_seeds keeps its legacy (seed, seed+1, ...) schedule;
// its parallel path must reproduce the serial pooling bit-for-bit too.
TEST(ParallelRunnerTest, MultiSeedComparisonMatchesSerialAtAnyJobs) {
  const ExperimentConfig config = trace_scenario(StructureKind::kTpcDs, 5, 7);
  const std::vector<std::string> names = {"gurita", "pfs"};
  const std::string serial =
      serialize_report(compare_schedulers_seeds(config, names, 3, 1));
  EXPECT_EQ(serialize_report(compare_schedulers_seeds(config, names, 3, 2)),
            serial);
  EXPECT_EQ(serialize_report(compare_schedulers_seeds(config, names, 3, 8)),
            serial);
}

TEST(DeriveRunSeedTest, DependsOnEveryKeyComponent) {
  const std::uint64_t base = derive_run_seed(7, "fig5", 0, 0);
  EXPECT_EQ(derive_run_seed(7, "fig5", 0, 0), base);  // pure function
  EXPECT_NE(derive_run_seed(8, "fig5", 0, 0), base);
  EXPECT_NE(derive_run_seed(7, "fig6", 0, 0), base);
  EXPECT_NE(derive_run_seed(7, "fig5", 1, 0), base);
  EXPECT_NE(derive_run_seed(7, "fig5", 0, 1), base);
}

TEST(DeriveRunSeedTest, ProducesDistinctSeedsAcrossAMatrix) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t c = 0; c < 16; ++c)
    for (std::uint64_t r = 0; r < 16; ++r)
      seen.insert(derive_run_seed(42, "grid", c, r));
  EXPECT_EQ(seen.size(), 16u * 16u);
}

// The derivation is part of the recorded-experiment contract ("fixed
// forever"): golden values pin the exact bit pattern so an accidental
// reformulation cannot slip through as a refactor.
TEST(DeriveRunSeedTest, GoldenValuesPinTheDerivation) {
  EXPECT_EQ(derive_run_seed(0, "", 0, 0), 0xd5784dc90ff56603ULL);
  EXPECT_EQ(derive_run_seed(7, "bench_parallel", 0, 3),
            0x824c1f06c78f5300ULL);
}

TEST(ResolveJobsTest, FlagBeatsEnvBeatsSerialDefault) {
  unsetenv("GURITA_JOBS");
  {
    const char* argv[] = {"prog"};
    EXPECT_EQ(resolve_jobs(Args(1, const_cast<char**>(argv))), 1);
  }
  {
    const char* argv[] = {"prog", "--jobs", "5"};
    EXPECT_EQ(resolve_jobs(Args(3, const_cast<char**>(argv))), 5);
  }
  setenv("GURITA_JOBS", "3", 1);
  {
    const char* argv[] = {"prog"};
    EXPECT_EQ(resolve_jobs(Args(1, const_cast<char**>(argv))), 3);
  }
  {
    const char* argv[] = {"prog", "--jobs", "5"};
    EXPECT_EQ(resolve_jobs(Args(3, const_cast<char**>(argv))), 5);
  }
  unsetenv("GURITA_JOBS");
}

TEST(ResolveJobsTest, ZeroMeansAllHardwareThreads) {
  const char* argv[] = {"prog", "--jobs", "0"};
  EXPECT_GE(resolve_jobs(Args(3, const_cast<char**>(argv))), 1);
}

// The per-worker arena (exp/arena.h) caches fabrics across cells. Reuse
// must be invisible: running the same sweep repeatedly on one thread —
// each pass reusing the fabrics the previous pass built — must serialize
// identically to the first pass, and identically at every worker count
// (workers inherit whatever their arena accumulated from earlier cells in
// the same process).
TEST(ParallelRunnerTest, ArenaReuseKeepsRepeatedSweepsByteIdentical) {
  const std::string first = serialize_reports(run_sweep(small_sweep(), 1));
  ASSERT_FALSE(first.empty());
  // Same thread, now-warm arena: cached fabric.
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 1)), first);
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 1)), first);
  // Warm and cold workers mixed (fresh pool threads each call).
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 2)), first);
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 8)), first);
}

// run_sharded is the primitive under everything: exceptions surface (by
// smallest index) instead of being lost on a worker.
TEST(RunShardedTest, PropagatesTheSmallestFailingIndex) {
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    try {
      run_sharded(10, jobs, [](std::size_t i) {
        if (i >= 4) throw std::runtime_error("shard " + std::to_string(i));
      });
      FAIL() << "exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 4");
    }
  }
}

}  // namespace
}  // namespace gurita
