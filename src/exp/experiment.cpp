#include "exp/experiment.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "exp/arena.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "snapshot/snapshot.h"

namespace gurita {

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

/// Runs `sim` to completion under the checkpoint policy: pause every
/// `every` simulated seconds (counting from the simulator's current time,
/// so a resumed run keeps its own cadence) and snapshot, halt deliberately
/// after `halt_after` snapshots when asked. Pausing and checkpointing are
/// invisible to the simulation — run_to() pauses are exact, checkpoint() is
/// const — so the returned results match an uninterrupted run() bit for bit.
SimResults run_checkpointed(Simulator& sim,
                            const ExperimentConfig::CheckpointOptions& opts,
                            const std::string& ckpt_path) {
  int snapshots = 0;
  Time bound = sim.now();
  for (;;) {
    // run_to() makes no progress while the next event lies at or beyond
    // the bound, so the bound ratchets forward on its own: an idle gap
    // longer than `every` then costs a few empty slices, never a hang.
    const std::uint64_t events = sim.partial_results().events;
    bound = std::max(bound, sim.now()) + opts.every;
    if (!sim.run_to(bound)) break;
    // A slice that processed no event is neither snapshot nor counted.
    if (sim.partial_results().events == events) continue;
    snapshot::Writer w;
    sim.checkpoint(w);
    snapshot::write_snapshot_file(ckpt_path, w.buffer());
    ++snapshots;
    if (opts.halt_after > 0 && snapshots >= opts.halt_after)
      throw snapshot::HaltedError("halted on purpose after " +
                                  std::to_string(snapshots) +
                                  " snapshot(s); resume from " + ckpt_path);
  }
  return sim.run();
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

SimResults run_one(const ExperimentConfig& config,
                   const std::vector<JobSpec>& jobs, Scheduler& scheduler,
                   const std::string& checkpoint_key) {
  const bool checkpointing =
      config.checkpoint.active() && !checkpoint_key.empty();
  const std::string stem =
      checkpointing ? config.checkpoint.dir + "/" + checkpoint_key : "";
  const std::string ckpt_path = stem + ".ckpt";
  const std::string done_path = stem + ".done";
  if (checkpointing) {
    // A finished shard's cached results short-circuit the whole run (the
    // cache holds the byte-identical SimResults, trace included, minus the
    // wall-clock profile — snapshot/snapshot.h).
    if (config.checkpoint.resume && file_exists(done_path)) {
      const std::string bytes = snapshot::read_snapshot_file(done_path);
      snapshot::Reader r(bytes);
      if (snapshot::read_header(r) != snapshot::PayloadKind::kResultsCache)
        throw snapshot::SnapshotError(done_path +
                                      " is not a results cache snapshot");
      return snapshot::load_results(r);
    }
    std::filesystem::create_directories(config.checkpoint.dir);
  }
  // The worker's arena caches the (immutable) fabric across cells and
  // recycles the simulator's container capacity — rebuilding both per run
  // is what made the sharded sweep allocator-bound (DESIGN.md §9).
  RunArena& arena = RunArena::local();
  const FatTree& fabric = arena.fabric(FatTree::Config{
      config.fat_tree_k, config.link_capacity, config.ecmp_salt});
  // Per-run recorder/profiler/sampler on the stack: each run owns its
  // telemetry and the parallel runner pools the snapshots in slot order
  // (absorb), so the exported trace is byte-identical at any worker count.
  const bool timeline = config.obs.timeline_every > 0;
  std::uint32_t mask = config.obs.trace_mask;
  if (timeline) {
    mask |= obs::TraceRecorder::kTimelineKinds;
    if (config.obs.timeline_wall)
      mask |= obs::mask_of(obs::TraceEventKind::kWallSample);
  }
  obs::TraceRecorder recorder(mask);
  obs::PhaseProfiler profiler;
  if (config.obs.spans) profiler.enable_spans();
  obs::IntervalSampler sampler(obs::IntervalSampler::Config{
      timeline ? config.obs.timeline_every : 1.0,
      /*memory=*/true, config.obs.timeline_wall});
  obs::MemoryAccountant accountant;
  Simulator::Config sim_config;
  sim_config.recycle = &arena.sim_buffers();
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
  if (checkpointing && config.checkpoint.resume && file_exists(ckpt_path)) {
    // Mid-flight resume: rebuild the simulator from the same inputs (done
    // above), then overwrite its dynamic state from the snapshot. The
    // embedded fingerprint rejects artifacts from a different workload.
    const std::string bytes = snapshot::read_snapshot_file(ckpt_path);
    snapshot::Reader r(bytes);
    sim.restore(r);
  }
  SimResults results =
      checkpointing && config.checkpoint.every > 0
          ? run_checkpointed(sim, config.checkpoint, ckpt_path)
          : sim.run();
  if (config.obs.trace || timeline) results.trace = recorder.take();
  if (config.obs.profile || config.obs.spans)
    results.profile = profiler.snapshot();
  if (config.obs.spans) results.spans = profiler.take_spans();
  if (config.obs.diagnostics) {
    // Non-deterministic run health; stays out of the .done results cache
    // (a cached shard reports zero diagnostics, like the profile).
    results.diagnostics.alloc = sim.allocator_stats();
    results.diagnostics.memory = accountant;
  }
  if (checkpointing) {
    // Record the finished shard so a later resume skips it entirely.
    snapshot::Writer w;
    snapshot::write_header(w, snapshot::PayloadKind::kResultsCache);
    snapshot::save_results(w, results);
    snapshot::write_snapshot_file(done_path, w.buffer());
  }
  return results;
}

ComparisonResult compare_schedulers(const ExperimentConfig& config,
                                    const std::vector<std::string>& names,
                                    const std::string& checkpoint_key) {
  TraceConfig trace = config.trace;
  // Sizing only — but grabbing it from the arena (same worker, usually the
  // same config run_one asks for) makes this lookup free instead of a
  // second full FatTree construction per cell.
  RunArena& arena = RunArena::local();
  const FatTree& fabric = arena.fabric(
      FatTree::Config{config.fat_tree_k, config.link_capacity});
  trace.num_hosts = fabric.num_hosts();
  std::vector<JobSpec>& jobs = arena.job_buffer();
  generate_trace_into(trace, jobs);

  ComparisonResult out;
  for (const std::string& name : names) {
    const std::unique_ptr<Scheduler> scheduler = make_scheduler(name);
    SimResults results = run_one(
        config, jobs, *scheduler,
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

ComparisonResult compare_schedulers_seeds(ExperimentConfig config,
                                          const std::vector<std::string>& names,
                                          int num_seeds, int jobs) {
  GURITA_CHECK_MSG(num_seeds >= 1, "need at least one seed");
  // Legacy seed schedule (seed, seed+1, ...): every replicate's workload is
  // fixed up front, so the replicates are independent runs that can execute
  // on any worker in any order.
  std::vector<ExperimentRun> runs(static_cast<std::size_t>(num_seeds));
  for (int s = 0; s < num_seeds; ++s) {
    runs[static_cast<std::size_t>(s)].config = config;
    runs[static_cast<std::size_t>(s)].schedulers = names;
    ++config.trace.seed;
  }
  const std::vector<ComparisonResult> one = run_matrix(runs, jobs);
  // Ordered merge: replicate order, regardless of completion order.
  ComparisonResult pooled;
  for (const ComparisonResult& r : one) pooled.absorb(r);
  return pooled;
}

ExperimentConfig trace_scenario(StructureKind structure, int num_jobs,
                                std::uint64_t seed) {
  ExperimentConfig config;
  config.fat_tree_k = 8;
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
  config.trace.structure = structure;
  config.trace.num_jobs = num_jobs;
  config.trace.arrivals = ArrivalPattern::kBursty;
  config.trace.burst_spacing = 2 * kMicrosecond;  // paper: 2 µs intervals
  config.trace.seed = seed;
  return config;
}

}  // namespace gurita
