// Experiment harness: runs a workload through one or more schedulers on a
// fat-tree fabric and aggregates the paper's metrics. Every bench binary is
// a thin wrapper over this.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "flowsim/simulator.h"
#include "metrics/collector.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {

struct ExperimentConfig {
  int fat_tree_k = 8;              ///< paper's trace scenario: 8 pods
  Rate link_capacity = gbps(10.0); ///< 10G switches
  TraceConfig trace;
  std::uint64_t ecmp_salt = 0;

  /// Telemetry switches (obs/). All default off, so the hot path keeps its
  /// zero-cost contract; bench drivers flip them from --trace / --profile /
  /// --timeline / --chrome-trace / --diagnostics.
  struct ObsOptions {
    bool trace = false;  ///< record a structured trace into SimResults::trace
    std::uint32_t trace_mask = obs::TraceRecorder::kDefaultKinds;
    bool profile = false;  ///< fill SimResults::profile with phase timings
    /// > 0: attach a deterministic interval sampler at this sim-time
    /// cadence (obs/sampler.h). Implies a trace recorder (kSample /
    /// kMemSample are OR-ed into the mask); the resulting timeline is
    /// byte-identical at any worker count (DESIGN.md §14).
    double timeline_every = 0;
    /// Capture per-slice phase spans into SimResults::spans for
    /// Chrome-trace export (implies profile). Wall-clock telemetry.
    bool spans = false;
    /// Harvest non-deterministic run health (allocator work counters,
    /// reserved memory footprint) into SimResults::diagnostics. Kept out
    /// of determinism fingerprints and snapshots.
    bool diagnostics = false;
  };
  ObsOptions obs;

  /// Fault injection (fault/). When enabled, run_one compiles `plan` into a
  /// concrete FaultPlan whose seed derives from the run's trace seed through
  /// the stable key ("fault-plan", 0, 0) — so a given workload always meets
  /// the identical fault schedule, independent of worker count, matrix
  /// position or which scheduler is replaying it. Disabled (the default)
  /// costs nothing and is byte-identical to a build without fault support.
  struct FaultOptions {
    bool enabled = false;
    FaultPlanConfig plan;
  };
  FaultOptions faults;

  /// Checkpoint/restore (snapshot/). When `dir` is set and the caller
  /// supplies a checkpoint key, run_one snapshots the paused simulator every
  /// `every` simulated seconds to `dir/<key>.<scheduler>.ckpt` (atomic
  /// write), and once more when the run has drained, before its results
  /// are collected. With `resume` set it restores from that file — a
  /// mid-run checkpoint continues the run, a final one only collects, and
  /// such a finished shard reports no profile, spans or diagnostics — and
  /// the resumed sweep's output is byte-identical to an uninterrupted one
  /// (snapshot/snapshot.h). `halt_after` > 0 throws HaltedError after that
  /// many cadence snapshots (the final checkpoint never counts): a
  /// deterministic crash for resume testing.
  struct CheckpointOptions {
    Time every = 0;       ///< snapshot cadence in simulated seconds; 0 = off
    std::string dir;      ///< artifact directory; empty disables everything
    bool resume = false;  ///< resume from dir's .ckpt artifacts
    int halt_after = 0;   ///< > 0: HaltedError after N snapshots (testing)

    [[nodiscard]] bool active() const { return !dir.empty(); }
  };
  CheckpointOptions checkpoint;
};

/// Outcome per scheduler, keyed by scheduler name.
struct ComparisonResult {
  std::map<std::string, JctCollector> collectors;
  std::map<std::string, SimResults> results;

  /// Pools another comparison (same scheduler names) into this one:
  /// collectors merge sample-order-preserving, job populations concatenate
  /// with re-assigned ids (so per-job speedups stay aligned across
  /// schedulers), coflow populations likewise, and engine-cost counters
  /// merge explicitly (SimResults::merge_counters). Absorbing replicates in
  /// replicate order reproduces a serial multi-seed run exactly — the
  /// ordered-merge half of the parallel runner's determinism contract.
  void absorb(const ComparisonResult& other);

  /// The paper's improvement factor of Gurita over `other`
  /// (category = -1 → overall average).
  [[nodiscard]] double improvement(const std::string& reference,
                                   const std::string& other,
                                   int category = -1) const;

  /// Mean per-job speedup of `reference` over `other` (every job weighted
  /// equally; category = -1 → all jobs).
  [[nodiscard]] double per_job_speedup(const std::string& reference,
                                       const std::string& other,
                                       int category = -1) const;
};

/// Runs `jobs` under `scheduler` on a fresh fabric; returns the results.
/// `checkpoint_key` names this run's snapshot artifacts (the file stem
/// inside config.checkpoint.dir); when it is empty or checkpointing is not
/// configured, the run is a plain uninterrupted run(). Checkpointing never
/// perturbs results: a checkpointed (or halted-and-resumed) run is
/// byte-identical to an uninterrupted one.
[[nodiscard]] SimResults run_one(const ExperimentConfig& config,
                                 const std::vector<JobSpec>& jobs,
                                 Scheduler& scheduler,
                                 const std::string& checkpoint_key = "");

/// Generates the workload once, replays the *identical* job set under each
/// named scheduler, and returns per-scheduler collectors. `checkpoint_key`
/// prefixes each scheduler's snapshot artifacts ("<key>.<scheduler>"); see
/// run_one.
[[nodiscard]] ComparisonResult compare_schedulers(
    const ExperimentConfig& config, const std::vector<std::string>& names,
    const std::string& checkpoint_key = "");

/// Canonical configurations for the paper's scenarios. Each sizes the
/// trace's endpoint range (trace.num_hosts) to its fat-tree's host count.
/// Trace-driven (§V, Figs. 5/6/8): 8-pod fat-tree, Poisson arrivals.
[[nodiscard]] ExperimentConfig trace_scenario(StructureKind structure,
                                              int num_jobs,
                                              std::uint64_t seed);
/// Bursty (§V, Figs. 5/7): jobs arrive 2 µs apart in batches on a larger
/// fabric. The paper uses 48 pods and 10,000 jobs; defaults are scaled down
/// so the suite completes quickly — pass the paper's numbers to reproduce
/// at full scale.
[[nodiscard]] ExperimentConfig bursty_scenario(StructureKind structure,
                                               int num_jobs,
                                               std::uint64_t seed,
                                               int fat_tree_k = 8);

}  // namespace gurita
