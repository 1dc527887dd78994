// Determinism regression tests for the parallel experiment runner: the
// same experiment matrix executed at 1, 2 and 8 workers must produce
// byte-identical serialized metric reports (hexfloat — every bit of every
// double — not just approximately equal summaries). Plus unit coverage of
// the seed-derivation key, worker-count resolution and run_sharded itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "seeded_comparison.h"

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
  EXPECT_EQ(resolve_jobs(Args(3, const_cast<char**>(argv))),
            hardware_threads());
  EXPECT_GE(hardware_threads(), 1);
}

// hardware_threads() is the runtime's count when it knows one (else 1),
// and an explicit positive --jobs passes through whatever the hardware.
TEST(ResolveJobsTest, ResolvesHardwareAndExplicitCounts) {
  const unsigned reported = std::thread::hardware_concurrency();
  EXPECT_EQ(hardware_threads(),
            reported == 0 ? 1 : static_cast<int>(reported));
  unsetenv("GURITA_JOBS");
  for (const char* count : {"1", "3", "64"}) {
    const char* argv[] = {"prog", "--jobs", count};
    EXPECT_EQ(resolve_jobs(Args(3, const_cast<char**>(argv))),
              std::stoi(count));
  }
}

// No state survives a sweep: running the same sweep repeatedly in one
// process must serialize identically to the first pass, on the calling
// thread alone and at every worker count (fresh worker threads each call).
TEST(ParallelRunnerTest, ArenaReuseKeepsRepeatedSweepsByteIdentical) {
  const std::string first = serialize_reports(run_sweep(small_sweep(), 1));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 1)), first);
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 1)), first);
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 2)), first);
  EXPECT_EQ(serialize_reports(run_sweep(small_sweep(), 8)), first);
}

// run_sharded is the primitive under everything: every index runs exactly
// once at any worker count, including n < jobs and n == 0.
TEST(RunShardedTest, CoversEveryIndexExactlyOnce) {
  for (const std::size_t n : {0, 1, 3, 1000}) {
    for (const int jobs : {1, 2, 8}) {
      SCOPED_TRACE("n " + std::to_string(n) + " jobs " + std::to_string(jobs));
      std::vector<std::atomic<int>> hits(n);
      run_sharded(n, jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

// n == 0 returns without ever calling fn, at every worker count.
TEST(RunShardedTest, ZeroIndicesIsANoOp) {
  for (const int jobs : {0, 1, 2, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    run_sharded(0, jobs, [](std::size_t) { FAIL() << "fn called for n=0"; });
  }
}

// `--jobs N` means N simulations in flight, never N + 1: the calling thread
// is one of the N workers, not an extra one.
TEST(RunShardedTest, NeverRunsMoreThanJobsAtOnce) {
  for (const int jobs : {1, 2, 4, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
    run_sharded(64, jobs, [&](std::size_t) {
      const int now = live.fetch_add(1) + 1;
      for (int seen = peak.load(); now > seen;)
        if (peak.compare_exchange_weak(seen, now)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      live.fetch_sub(1);
    });
    EXPECT_LE(peak.load(), jobs);
    if (jobs <= hardware_threads()) {
      EXPECT_EQ(peak.load(), jobs);
    }
  }
}

// The determinism contract's foundation: a computation keyed only on its
// index produces identical output at every worker count, because slots are
// index-addressed and no invocation reads another's state.
TEST(RunShardedTest, ResultsIndependentOfWorkerCount) {
  constexpr std::size_t kN = 200;
  const auto run_at = [](int jobs) {
    std::vector<std::uint64_t> out(kN, 0);
    run_sharded(kN, jobs, [&](std::size_t i) {
      Rng rng(static_cast<std::uint64_t>(i) * 0x9e3779b9ULL + 1);
      std::uint64_t acc = 0;
      for (int k = 0; k < 100; ++k) acc ^= rng.next_u64();
      out[i] = acc;
    });
    return out;
  };
  const std::vector<std::uint64_t> serial = run_at(1);
  EXPECT_EQ(run_at(2), serial);
  EXPECT_EQ(run_at(8), serial);
}

// run_sharded is the primitive under everything: exceptions surface (by
// smallest index) instead of being lost on a worker.
TEST(RunShardedTest, PropagatesTheSmallestFailingIndex) {
  for (const int jobs : {1, 2, 8}) {
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

// If several invocations throw, the exception of the SMALLEST index is
// rethrown even when it finishes last, and every index still runs, so the
// set of indices that ran is the same at any `jobs`.
TEST(RunShardedTest, SmallestFailingIndexWinsAndEveryIndexRuns) {
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    constexpr std::size_t kN = 64;
    std::vector<std::atomic<int>> ran(kN);
    try {
      run_sharded(kN, jobs, [&](std::size_t i) {
        ran[i].fetch_add(1);
        if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (i == 5 || i == 11 || i == 40)
          throw std::runtime_error("shard " + std::to_string(i));
      });
      FAIL() << "exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 5");
    }
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(ran[i].load(), 1) << "index " << i;
  }
}

// Each call owns its threads, so a call made from inside another completes
// at every worker count: there is no shared pool for the two to exhaust.
TEST(RunShardedTest, NestedCallsComplete) {
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 10;
    std::vector<std::atomic<int>> cells(kOuter * kInner);
    run_sharded(kOuter, jobs, [&](std::size_t o) {
      run_sharded(kInner, jobs, [&](std::size_t i) {
        cells[o * kInner + i].fetch_add(1);
      });
    });
    for (std::size_t c = 0; c < cells.size(); ++c)
      ASSERT_EQ(cells[c].load(), 1) << "cell " << c;
  }
}

// Stress: foreign threads flood tiny run_sharded calls while the main
// thread runs waves of nested calls. Every invocation runs exactly once
// and everything returns: no call waits on another's workers.
TEST(RunShardedTest, TinyTaskFloodWithNestedCallsCompletes) {
  constexpr int kSubmitters = 4;
  constexpr std::size_t kTasksPerSubmitter = 2000;
  constexpr std::size_t kWaves = 20;
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&ran] {
      run_sharded(kTasksPerSubmitter, 4,
                  [&ran](std::size_t) { ran.fetch_add(1); });
    });
  }
  std::atomic<std::uint64_t> inner{0};
  for (std::size_t w = 0; w < kWaves; ++w) {
    run_sharded(8, 4, [&inner](std::size_t) {
      run_sharded(50, 4, [&inner](std::size_t) { inner.fetch_add(1); });
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(ran.load(), kSubmitters * kTasksPerSubmitter);
  EXPECT_EQ(inner.load(), kWaves * 8 * 50);
}

}  // namespace
}  // namespace gurita
