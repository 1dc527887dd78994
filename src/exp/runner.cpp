#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/check.h"
#include "common/fnv.h"

namespace gurita {

namespace {

/// SplitMix64 finalizer (the Rng's output scrambler): a 64-bit bijection
/// with full avalanche, so nearby keys land on unrelated seeds.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t derive_run_seed(std::uint64_t base_seed,
                              const std::string& experiment,
                              std::uint64_t config_index,
                              std::uint64_t replicate) {
  std::uint64_t h = mix64(base_seed);
  Fnv1a name;  // stable across platforms and runs
  name.bytes(experiment);
  h = mix64(h ^ name.value());
  h = mix64(h ^ config_index);
  h = mix64(h ^ replicate);
  return h;
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int resolve_jobs(const Args& args) {
  int jobs = 1;
  if (const char* env = std::getenv("GURITA_JOBS")) {
    try {
      jobs = parse_int_strict(env);
    } catch (const std::exception&) {
      GURITA_CHECK_MSG(false,
                       std::string("GURITA_JOBS is not an integer: ") + env);
    }
  }
  jobs = args.get_int("jobs", jobs);
  GURITA_CHECK_MSG(jobs >= 0, "--jobs must be >= 0 (0 = all hardware threads)");
  return jobs == 0 ? hardware_threads() : jobs;
}

void run_sharded(std::size_t n, int jobs,
                 const std::function<void(std::size_t)>& fn) {
  // Each index owns an error slot: every index runs even when some throw,
  // and the smallest failing index is rethrown whichever worker hit it
  // first, so failures do not depend on `jobs`.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // The calling thread is the last of the min(jobs, n) workers.
  const std::size_t workers =
      std::min(static_cast<std::size_t>(std::max(jobs, 1)), n);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(work);
    work();
  }  // joins
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

std::vector<ComparisonResult> run_matrix(const std::vector<ExperimentRun>& runs,
                                         int jobs) {
  std::vector<ComparisonResult> results(runs.size());
  run_sharded(runs.size(), jobs, [&](std::size_t i) {
    results[i] = compare_schedulers(runs[i].config, runs[i].schedulers,
                                    runs[i].checkpoint_key.empty()
                                        ? "cell" + std::to_string(i)
                                        : runs[i].checkpoint_key);
  });
  return results;
}

std::vector<ComparisonResult> run_sweep(const SweepSpec& sweep, int jobs) {
  GURITA_CHECK_MSG(sweep.replicates >= 1, "need at least one replicate");
  GURITA_CHECK_MSG(!sweep.configs.empty(), "sweep has no configs");

  const std::size_t reps = static_cast<std::size_t>(sweep.replicates);
  std::vector<ExperimentRun> cells;
  cells.reserve(sweep.configs.size() * reps);
  for (std::size_t c = 0; c < sweep.configs.size(); ++c) {
    for (std::size_t r = 0; r < reps; ++r) {
      ExperimentRun run;
      run.label = sweep.experiment;
      run.config = sweep.configs[c];
      run.config.trace.seed =
          derive_run_seed(sweep.configs[c].trace.seed, sweep.experiment, c, r);
      run.schedulers = sweep.schedulers;
      run.checkpoint_key.assign(1, 'c').append(std::to_string(c)).append(
          1, 'r').append(std::to_string(r));
      cells.push_back(std::move(run));
    }
  }

  std::vector<ComparisonResult> flat = run_matrix(cells, jobs);

  std::vector<ComparisonResult> pooled(sweep.configs.size());
  for (std::size_t c = 0; c < sweep.configs.size(); ++c)
    for (std::size_t r = 0; r < reps; ++r)
      pooled[c].absorb(flat[c * reps + r]);
  return pooled;
}

}  // namespace gurita
