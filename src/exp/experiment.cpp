#include "exp/experiment.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/check.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "snapshot/snapshot.h"

namespace gurita {

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

/// Drains `sim` under the checkpoint policy: pause every `every` simulated
/// seconds (counting from the simulator's current time, so a resumed run
/// keeps its own cadence) and snapshot, halt deliberately after
/// `halt_after` snapshots when asked; then write the final checkpoint,
/// which never counts toward `halt_after`, so a later resume of the
/// finished shard restores instead of re-running. Pausing and
/// checkpointing are invisible to the simulation — run_to() pauses are
/// exact, checkpoint() is const — so the results collected afterwards
/// match an uninterrupted run() bit for bit.
void run_checkpointed(Simulator& sim,
                      const ExperimentConfig::CheckpointOptions& opts,
                      const std::string& ckpt_path) {
  const auto save = [&] {
    snapshot::Writer w;
    sim.checkpoint(w);
    snapshot::write_snapshot_file(ckpt_path, w.buffer());
  };
  int snapshots = 0;
  Time bound = sim.now();
  while (opts.every > 0) {
    // run_to() makes no progress while the next event lies at or beyond
    // the bound, so the bound ratchets forward on its own: an idle gap
    // longer than `every` then costs a few empty slices, never a hang.
    const std::uint64_t events = sim.partial_results().events;
    bound = std::max(bound, sim.now()) + opts.every;
    if (!sim.run_to(bound)) break;
    // A slice that processed no event is neither snapshot nor counted.
    if (sim.partial_results().events == events) continue;
    save();
    ++snapshots;
    if (opts.halt_after > 0 && snapshots >= opts.halt_after)
      throw snapshot::HaltedError("halted on purpose after " +
                                  std::to_string(snapshots) +
                                  " snapshot(s); resume from " + ckpt_path);
  }
  (void)sim.run_to(std::numeric_limits<Time>::infinity());
  save();
}

}  // namespace

double ComparisonResult::improvement(const std::string& reference,
                                     const std::string& other,
                                     int category) const {
  const auto ref = collectors.find(reference);
  const auto oth = collectors.find(other);
  GURITA_CHECK_MSG(ref != collectors.end(), "no results for " + reference);
  GURITA_CHECK_MSG(oth != collectors.end(), "no results for " + other);
  return improvement_factor(ref->second, oth->second, category);
}

double ComparisonResult::per_job_speedup(const std::string& reference,
                                         const std::string& other,
                                         int category) const {
  const auto ref = results.find(reference);
  const auto oth = results.find(other);
  GURITA_CHECK_MSG(ref != results.end(), "no results for " + reference);
  GURITA_CHECK_MSG(oth != results.end(), "no results for " + other);
  return mean_per_job_speedup(ref->second, oth->second, category);
}

namespace {

/// run_one on a fabric the caller built from `config`'s fabric fields.
SimResults run_on(const FatTree& fabric, const ExperimentConfig& config,
                  const std::vector<JobSpec>& jobs, Scheduler& scheduler,
                  const std::string& checkpoint_key) {
  const bool checkpointing =
      config.checkpoint.active() && !checkpoint_key.empty();
  const std::string ckpt_path =
      checkpointing ? config.checkpoint.dir + "/" + checkpoint_key + ".ckpt"
                    : "";
  if (checkpointing) std::filesystem::create_directories(config.checkpoint.dir);
  // Per-run recorder/profiler/sampler on the stack: each run owns its
  // telemetry and the parallel runner pools the snapshots in slot order
  // (absorb), so the exported trace is byte-identical at any worker count.
  const bool timeline = config.obs.timeline_every > 0;
  std::uint32_t mask = config.obs.trace_mask;
  if (timeline) mask |= obs::TraceRecorder::kTimelineKinds;
  obs::TraceRecorder recorder(mask);
  obs::PhaseProfiler profiler;
  if (config.obs.spans) profiler.enable_spans();
  obs::IntervalSampler sampler(obs::IntervalSampler::Config{
      timeline ? config.obs.timeline_every : 1.0});
  obs::MemoryAccountant accountant;
  Simulator::Config sim_config;
  if (config.obs.trace || timeline) sim_config.trace = &recorder;
  if (config.obs.profile || config.obs.spans)
    sim_config.profiler = &profiler;
  if (timeline) sim_config.sampler = &sampler;
  if (config.obs.diagnostics) sim_config.memory = &accountant;
  if (config.faults.enabled) {
    // The plan seed derives from the trace seed through a stable key, so
    // fault schedules replicate exactly wherever this workload runs.
    sim_config.faults = generate_fault_plan(
        config.faults.plan,
        derive_run_seed(config.trace.seed, "fault-plan", 0, 0),
        fabric.num_hosts(), fabric.topology().link_count());
  }
  Simulator sim(fabric, scheduler, sim_config);
  for (const JobSpec& job : jobs) sim.submit(job);
  // A finished shard's final checkpoint holds its whole outcome: nothing
  // is left to run, and it reports no wall-clock telemetry.
  bool finished = false;
  if (checkpointing && config.checkpoint.resume && file_exists(ckpt_path)) {
    // Rebuild the simulator from the same inputs (done above), then
    // overwrite its dynamic state from the snapshot. The embedded
    // fingerprint rejects artifacts from a different workload.
    const std::string bytes = snapshot::read_snapshot_file(ckpt_path);
    snapshot::Reader r(bytes);
    sim.restore(r);
    finished = !sim.pending();
  }
  if (checkpointing && !finished)
    run_checkpointed(sim, config.checkpoint, ckpt_path);
  SimResults results = sim.run();
  if (config.obs.trace || timeline) results.trace = recorder.take();
  if (finished) return results;
  if (config.obs.profile || config.obs.spans)
    results.profile = profiler.snapshot();
  if (config.obs.spans) results.spans = profiler.take_spans();
  if (config.obs.diagnostics) {
    // Non-deterministic run health; not part of any checkpoint.
    results.diagnostics.alloc = sim.allocator_stats();
    results.diagnostics.memory = accountant;
  }
  return results;
}

FatTree build_fabric(const ExperimentConfig& config) {
  return FatTree(FatTree::Config{config.fat_tree_k, config.link_capacity,
                                 config.ecmp_salt});
}

}  // namespace

SimResults run_one(const ExperimentConfig& config,
                   const std::vector<JobSpec>& jobs, Scheduler& scheduler,
                   const std::string& checkpoint_key) {
  return run_on(build_fabric(config), config, jobs, scheduler,
                checkpoint_key);
}

ComparisonResult compare_schedulers(const ExperimentConfig& config,
                                    const std::vector<std::string>& names,
                                    const std::string& checkpoint_key) {
  // One fabric per cell: it sizes the workload and carries every
  // scheduler's run (FatTree is immutable after construction).
  const FatTree fabric = build_fabric(config);
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const std::vector<JobSpec> jobs = generate_trace(trace);

  ComparisonResult out;
  for (const std::string& name : names) {
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(name);
    SimResults results = run_on(
        fabric, config, jobs, *scheduler,
        checkpoint_key.empty() ? checkpoint_key : checkpoint_key + "." + name);
    JctCollector collector;
    collector.add(results);
    out.collectors.emplace(name, std::move(collector));
    out.results.emplace(name, std::move(results));
  }
  return out;
}

void ComparisonResult::absorb(const ComparisonResult& other) {
  for (const auto& [name, collector] : other.collectors)
    collectors[name].merge(collector);
  for (const auto& [name, src] : other.results) {
    SimResults& dst = results[name];
    // Re-id jobs/coflows so pooled populations stay aligned across
    // schedulers (per-job speedups match jobs up by id).
    const std::uint64_t job_base = dst.jobs.size();
    for (SimResults::JobResult j : src.jobs) {
      j.id = JobId{job_base + j.id.value()};
      dst.jobs.push_back(j);
    }
    const std::uint64_t coflow_base = dst.coflows.size();
    for (SimResults::CoflowResult c : src.coflows) {
      c.id = CoflowId{coflow_base + c.id.value()};
      c.job = JobId{job_base + c.job.value()};
      dst.coflows.push_back(c);
    }
    // Trace records pool alongside the populations: append in replicate
    // order with job/coflow ids re-based the same way (flow ids and
    // timestamps stay run-local — a trace reader groups by job).
    dst.trace.reserve(dst.trace.size() + src.trace.size());
    for (obs::TraceRecord r : src.trace) {
      if (r.job != obs::kNoTraceId) r.job += job_base;
      if (r.coflow != obs::kNoTraceId) r.coflow += coflow_base;
      dst.trace.push_back(r);
    }
    dst.profile.merge(src.profile);
    // Spans concatenate in replicate order; diagnostics merge (counter
    // sums, peak maxes). Both are wall-clock/diagnostic telemetry outside
    // the determinism contract.
    dst.spans.insert(dst.spans.end(), src.spans.begin(), src.spans.end());
    dst.diagnostics.merge(src.diagnostics);
    dst.merge_counters(src);
  }
}

ExperimentConfig trace_scenario(StructureKind structure, int num_jobs,
                                std::uint64_t seed) {
  ExperimentConfig config;
  config.fat_tree_k = 8;
  config.trace.num_hosts = FatTree::host_count(config.fat_tree_k);
  config.trace.structure = structure;
  config.trace.num_jobs = num_jobs;
  config.trace.arrivals = ArrivalPattern::kPoisson;
  config.trace.seed = seed;
  return config;
}

ExperimentConfig bursty_scenario(StructureKind structure, int num_jobs,
                                 std::uint64_t seed, int fat_tree_k) {
  ExperimentConfig config;
  config.fat_tree_k = fat_tree_k;
  config.trace.num_hosts = FatTree::host_count(fat_tree_k);
  config.trace.structure = structure;
  config.trace.num_jobs = num_jobs;
  config.trace.arrivals = ArrivalPattern::kBursty;
  config.trace.burst_spacing = 2 * kMicrosecond;  // paper: 2 µs intervals
  config.trace.seed = seed;
  return config;
}

}  // namespace gurita
