// Parallel-runner bench: wall-clock of one replicated experiment sweep at
// several worker counts, with a bit-identity check across all of them.
//
// The sweep is the evaluation's common shape — one scenario × several
// schedulers × many trace seeds — executed by exp/runner.h. For every
// entry of --jobs-list the identical sweep runs again and its pooled
// result is fingerprinted (every per-job finish time bit-exact, plus the
// merged engine counters); the bench FAILS if any fingerprint differs from
// the serial one, so the speedup numbers it reports are certified to come
// from the same results. Writes BENCH_parallel.json for cross-PR tracking.
//
//   ./bench_parallel [--num-jobs 120] [--replicates 16] [--seed 7]
//                    [--jobs-list 1,2,4,8] [--out BENCH_parallel.json]
//                    [--profile] [--speedup-guard 4]
//
// --profile attaches the engine phase profiler (obs/profiler.h) and prints
// the pooled phase table per worker count — the before/after methodology
// EXPERIMENTS.md's parallel section uses. --speedup-guard X fails the
// bench (exit 1) if the largest worker count's speedup lands below X,
// scaled by min(1, hardware_threads/8) so small CI runners are held to a
// proportional bar; machines with fewer than 2 hardware threads skip the
// guard (parallelism is unmeasurable there).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/atomic_file.h"
#include "common/fnv.h"
#include "exp/args.h"
#include "exp/runner.h"
#include "obs/profiler.h"

namespace gurita {
namespace {

/// FNV-1a fingerprint of a pooled comparison: bit-exact on every job's
/// (id, arrival, finish) per scheduler plus the merged cost counters.
std::uint64_t fingerprint(const ComparisonResult& result) {
  Fnv1a h;
  for (const auto& [name, results] : result.results) {
    // A name character is mixed as a whole word; the tracked fingerprints
    // depend on it.
    for (const char c : name) h.u64(static_cast<unsigned char>(c));
    for (const SimResults::JobResult& j : results.jobs) {
      h.u64(j.id.value());
      h.f64(j.arrival);
      h.f64(j.finish);
    }
    h.u64(results.events);
    h.u64(results.flow_touches);
    h.u64(results.rate_recomputations);
    h.f64(results.makespan);
  }
  return h.value();
}

struct BenchRow {
  int jobs = 0;
  double wall_ms = 0;
  double speedup = 1.0;
  std::uint64_t fingerprint = 0;
};

std::vector<int> parse_jobs_list(const std::string& csv) {
  // parse_int_list validates every token fully (exp/args.h) — "4x8" or a
  // late bad entry reports the offending token instead of silently running
  // a truncated worker-count list.
  std::vector<int> counts;
  try {
    counts = parse_int_list(csv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "--jobs-list: " << e.what() << "\n";
    std::exit(1);
  }
  for (const int n : counts) {
    if (n <= 0) {
      std::cerr << "--jobs-list wants positive worker counts, got " << n
                << " in \"" << csv << "\"\n";
      std::exit(1);
    }
  }
  return counts;
}

bool write_json(const std::string& path, const std::vector<BenchRow>& rows,
                int replicates, int num_jobs) try {
  write_file_atomic(path, /*binary=*/false, [&](std::ostream& out) {
  out << "{\n  \"bench\": \"parallel\",\n  \"replicates\": " << replicates
      << ",\n  \"num_jobs\": " << num_jobs << ",\n  \"hardware_threads\": "
      << hardware_threads() << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"jobs\": " << r.jobs << ", \"wall_ms\": " << r.wall_ms
        << ", \"speedup\": " << r.speedup << ", \"fingerprint\": \""
        << std::hex << r.fingerprint << std::dec << "\", \"identical\": "
        << (r.fingerprint == rows[0].fingerprint ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  });
  return true;
} catch (const std::exception&) {
  return false;
}

}  // namespace
}  // namespace gurita

namespace {

int run(const gurita::Args& args) {
  using namespace gurita;
  const int num_jobs = args.get_int("num-jobs", 120);
  const int replicates = args.get_int("replicates", 16);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const std::vector<int> jobs_list =
      parse_jobs_list(args.get_string("jobs-list", "1,2,4,8"));
  const std::string out_path = args.get_string("out", "BENCH_parallel.json");
  const bool profile = args.get_bool("profile", false);
  const bool speedup_guard = args.has("speedup-guard");
  const double guard = args.get_double("speedup-guard", 0.0);
  args.reject_unread();

  SweepSpec sweep;
  sweep.experiment = "bench_parallel";
  sweep.configs = {trace_scenario(StructureKind::kTpcDs, num_jobs, seed)};
  sweep.configs[0].obs.profile = profile;
  sweep.schedulers = {"gurita", "aalo", "pfs", "baraat"};
  sweep.replicates = replicates;

  std::cout << "=== Parallel sweep: " << replicates << " seeds x "
            << sweep.schedulers.size() << " schedulers, " << num_jobs
            << " jobs each ===\n"
               "Identical fingerprints certify bit-identical pooled results "
               "at every worker count.\n\n"
               "jobs    wall_ms     speedup   fingerprint\n";

  std::vector<BenchRow> rows;
  for (const int jobs : jobs_list) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ComparisonResult> pooled = run_sweep(sweep, jobs);
    const auto stop = std::chrono::steady_clock::now();
    BenchRow row;
    row.jobs = jobs;
    row.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    row.speedup = rows.empty() ? 1.0 : rows[0].wall_ms / row.wall_ms;
    row.fingerprint = fingerprint(pooled[0]);
    rows.push_back(row);
    std::printf("%-7d %9.1f %9.2fx   %016" PRIx64 "\n", row.jobs, row.wall_ms,
                row.speedup, row.fingerprint);
    if (row.fingerprint != rows[0].fingerprint) {
      std::cerr << "\nFATAL: results at --jobs " << jobs
                << " differ from --jobs " << rows[0].jobs << "\n";
      return 1;
    }
    if (profile) {
      // Phase timings pooled over every run of the sweep (absorb merges
      // per-run snapshots in slot order); the wall attribution shows where
      // the workers actually spend their time at this worker count.
      obs::PhaseProfile pooled_profile;
      for (const auto& [name, results] : pooled[0].results)
        pooled_profile.merge(results.profile);
      std::cout << "\n--- phase profile at --jobs " << jobs << " ---\n"
                << pooled_profile.to_table() << "\n";
    }
  }

  if (!write_json(out_path, rows, replicates, num_jobs)) {
    std::cerr << "\nfailed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";

  if (speedup_guard) {
    // Guard on the largest worker count's speedup, with the bar scaled to
    // the machine: a 4-core CI runner cannot reach 4x, so it is held to
    // 4 * (4/8) = 2x instead. Below 2 hardware threads there is no
    // parallelism to measure — skip rather than fail.
    const int hw = hardware_threads();
    const BenchRow& widest = *std::max_element(
        rows.begin(), rows.end(),
        [](const BenchRow& a, const BenchRow& b) { return a.jobs < b.jobs; });
    if (hw < 2) {
      std::cout << "\nspeedup guard skipped: " << hw
                << " hardware thread(s), parallel speedup is unmeasurable\n";
    } else {
      const double effective = guard * std::min(1.0, hw / 8.0);
      std::printf(
          "\nspeedup guard: %.2fx at --jobs %d vs threshold %.2fx "
          "(%.2fx scaled for %d hardware threads)\n",
          widest.speedup, widest.jobs, effective, guard, hw);
      if (widest.speedup < effective) {
        std::cerr << "FATAL: parallel speedup regressed below the guard\n";
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return gurita::run_main(argc, argv, run);
}
