// Deterministic parallel experiment runner.
//
// The paper's evaluation is hundreds of independent (scheduler × trace ×
// seed) simulation runs — embarrassingly parallel. This module shards a run
// matrix over `jobs` workers — `jobs - 1` threads plus the caller, all
// claiming indices from one atomic cursor (run_sharded) — while keeping
// every result **bit-identical to a serial run**, at any worker count and
// under any completion order. Two rules make that hold:
//
//   1. *Independent seeding.* No run ever continues another run's RNG
//      stream. A replicated sweep derives each run's trace seed from the
//      stable key (experiment name, config index, replicate) via
//      derive_run_seed(), so the seed of run (c, r) does not depend on how
//      many runs exist, which workers execute them, or in what order.
//   2. *Ordered merging.* Workers write into index-addressed result slots;
//      pooling walks those slots in matrix order and merges through the
//      explicit, order-preserving merge APIs (JctCollector::merge,
//      SimResults::merge_counters, ComparisonResult::absorb). Nothing is
//      accumulated concurrently.
//
// DESIGN.md ("Determinism contract") documents the invariants; the
// ParallelRunner tests assert byte-identical metric reports for 1, 2 and 8
// threads; the differential harness in tests/ guards the engine itself.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/args.h"
#include "exp/experiment.h"

namespace gurita {

/// Stable per-run seed: mixes `base_seed` with the run's identity — the
/// experiment's name, the index of its config on the sweep's config axis
/// and the replicate number — through SplitMix64 finalizers. The result
/// depends only on these four values (never on thread count, matrix size or
/// execution order), collides only accidentally (64-bit), and is fixed
/// forever: changing this function invalidates every recorded experiment.
[[nodiscard]] std::uint64_t derive_run_seed(std::uint64_t base_seed,
                                            const std::string& experiment,
                                            std::uint64_t config_index,
                                            std::uint64_t replicate);

/// std::thread::hardware_concurrency(), or 1 when it is unknown.
[[nodiscard]] int hardware_threads();

/// Worker-count resolution for bench drivers: the `--jobs N` flag wins,
/// else the GURITA_JOBS environment variable, else 1 (serial). N = 0 means
/// one worker per hardware thread. Returns the resolved positive count.
[[nodiscard]] int resolve_jobs(const Args& args);

/// Runs fn(0) ... fn(n-1) on min(max(jobs, 1), n) workers: that many
/// minus one fresh threads plus the calling thread, so at most `jobs`
/// invocations are ever in flight (jobs <= 1 → the caller alone, no
/// threads). Every invocation must be self-contained — own RNG, own
/// fabric/scheduler instances, results written only to slot i of a
/// caller-owned, pre-sized container. Every index runs even when some
/// throw; afterwards the exception of the smallest failing index
/// propagates. Calls may nest (each call owns its threads).
void run_sharded(std::size_t n, int jobs,
                 const std::function<void(std::size_t)>& fn);

/// One fully-specified cell of an experiment matrix: a workload (the
/// config's trace seed is final — no derivation) replayed under each named
/// scheduler, exactly like compare_schedulers().
struct ExperimentRun {
  std::string label;  ///< for reports; not part of any seed
  ExperimentConfig config;
  std::vector<std::string> schedulers;
  /// Stable stem for this cell's snapshot artifacts when the config enables
  /// checkpointing (experiment.h). Empty → run_matrix falls back to
  /// "cell<i>", which is stable only while the matrix layout is: sweeps set
  /// an index-derived key ("c<config>r<replicate>") so resume survives
  /// relayout.
  std::string checkpoint_key = {};
};

/// Executes every run, sharded over `jobs` workers; slot i of the returned
/// vector holds run i's result. Bit-identical to calling
/// compare_schedulers() in a loop.
[[nodiscard]] std::vector<ComparisonResult> run_matrix(
    const std::vector<ExperimentRun>& runs, int jobs);

/// A replicated sweep: every config is run `replicates` times, the trace
/// seed of cell (config c, replicate r) being
/// derive_run_seed(configs[c].trace.seed, experiment, c, r).
struct SweepSpec {
  std::string experiment;  ///< stable name; part of every run's seed key
  std::vector<ExperimentConfig> configs;
  std::vector<std::string> schedulers;
  int replicates = 1;
};

/// Runs the sweep and pools the replicates of each config in replicate
/// order (ComparisonResult::absorb): out[c] aggregates configs[c]'s
/// replicates. Deterministic at any `jobs`.
[[nodiscard]] std::vector<ComparisonResult> run_sweep(const SweepSpec& sweep,
                                                      int jobs);

}  // namespace gurita
