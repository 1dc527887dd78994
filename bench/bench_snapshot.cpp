// Snapshot subsystem benchmark: checkpoint cost, serialize/deserialize
// throughput and snapshot size on a fig5-scale workload — plus a built-in
// correctness check that the checkpointed-and-restored run reproduces the
// uninterrupted run byte for byte.
//
//   ./bench_snapshot [--num-jobs 300] [--seed 7] [--pods 8]
//                    [--scheduler gurita]   # any registry name
//                    [--checkpoints 8]      # snapshots per checkpointed run
//                    [--reps 3]             # wall-clock best-of repetitions
//                    [--guard]              # exit 1 if checkpointing adds
//                                           # > 5% to the run's wall time
//                    [--guard-threshold F]  # override the 5% (fraction)
//                    [--json FILE]          # machine-readable report
//
// Three phases:
//   1. uninterrupted run() — the wall-clock baseline;
//   2. the same run paused `checkpoints` times at even fractions of the
//      baseline makespan, serializing a full snapshot at each pause (kept
//      in memory; file I/O is the OS's business, not the codec's);
//   3. every snapshot restored into a fresh simulator (deserialize
//      throughput), and the mid-run one resumed to completion.
// Each of the three runs ends in a final checkpoint of its drained state;
// the check is that all three are byte-identical.
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "flowsim/simulator.h"
#include "metrics/report.h"
#include "snapshot/snapshot.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Drains `sim` and returns its final checkpoint: the whole outcome of the
/// run (jobs, coflows, flows, counters), which an identical run reproduces
/// byte for byte.
std::string drain_and_checkpoint(Simulator& sim) {
  (void)sim.run_to(std::numeric_limits<Time>::infinity());
  snapshot::Writer w;
  sim.checkpoint(w);
  return w.take();
}

}  // namespace
}  // namespace gurita

namespace {

int run(const gurita::Args& args) {
  using namespace gurita;
  const int num_jobs = args.get_int("num-jobs", 300);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const int pods = args.get_int("pods", 8);
  const std::string scheduler = args.get_string("scheduler", "gurita");
  const int checkpoints = args.get_int("checkpoints", 8);
  const int reps = args.get_int("reps", 3);
  const bool guard = args.get_bool("guard", false);
  const double guard_threshold = args.get_double("guard-threshold", 0.05);
  const std::string json_path = args.get_string("json", "");
  args.reject_unread();
  GURITA_CHECK_MSG(checkpoints >= 1, "--checkpoints must be >= 1");
  GURITA_CHECK_MSG(reps >= 1, "--reps must be >= 1");

  ExperimentConfig config = trace_scenario(StructureKind::kFbTao, num_jobs,
                                           seed);
  config.fat_tree_k = pods;
  const FatTree fabric(FatTree::Config{config.fat_tree_k,
                                       config.link_capacity,
                                       config.ecmp_salt});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const std::vector<JobSpec> jobs = generate_trace(trace);

  // Phase 1: uninterrupted baseline (best wall time over --reps).
  double base_seconds = 0;
  std::string reference;
  Time makespan = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::unique_ptr<Scheduler> sched = make_scheduler(scheduler);
    Simulator sim(fabric, *sched, Simulator::Config{});
    for (const JobSpec& job : jobs) sim.submit(job);
    const Clock::time_point start = Clock::now();
    (void)sim.run_to(std::numeric_limits<Time>::infinity());
    const double elapsed = seconds_since(start);
    if (rep == 0 || elapsed < base_seconds) base_seconds = elapsed;
    if (rep == 0) {
      reference = drain_and_checkpoint(sim);
      makespan = sim.now();
    }
  }

  // Phase 2: the identical run paused `checkpoints` times, serializing at
  // each pause. The pauses land at even fractions of the makespan, so the
  // snapshots sample the whole lifecycle (ramp-up, steady state, drain).
  double checkpointed_seconds = 0;
  double serialize_seconds = 0;
  std::vector<std::string> snapshots;
  std::string checkpointed;
  for (int rep = 0; rep < reps; ++rep) {
    const std::unique_ptr<Scheduler> sched = make_scheduler(scheduler);
    Simulator sim(fabric, *sched, Simulator::Config{});
    for (const JobSpec& job : jobs) sim.submit(job);
    double serialize = 0;
    std::vector<std::string> taken;
    const Clock::time_point start = Clock::now();
    for (int i = 1; i <= checkpoints; ++i) {
      (void)sim.run_to(makespan * i / (checkpoints + 1));
      const Clock::time_point snap_start = Clock::now();
      snapshot::Writer w;
      sim.checkpoint(w);
      taken.push_back(w.take());
      serialize += seconds_since(snap_start);
    }
    (void)sim.run_to(std::numeric_limits<Time>::infinity());
    const double elapsed = seconds_since(start);
    if (rep == 0 || elapsed < checkpointed_seconds) {
      checkpointed_seconds = elapsed;
      serialize_seconds = serialize;
    }
    if (rep == 0) {
      checkpointed = drain_and_checkpoint(sim);
      snapshots = std::move(taken);
    }
  }

  // Phase 3: restore every snapshot into a fresh simulator, and resume the
  // middle one to completion.
  double deserialize_seconds = 0;
  std::uint64_t snapshot_bytes_total = 0;
  std::string resumed;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    snapshot_bytes_total += snapshots[i].size();
    const std::unique_ptr<Scheduler> sched = make_scheduler(scheduler);
    Simulator sim(fabric, *sched, Simulator::Config{});
    for (const JobSpec& job : jobs) sim.submit(job);
    const Clock::time_point start = Clock::now();
    snapshot::Reader r(snapshots[i]);
    sim.restore(r);
    deserialize_seconds += seconds_since(start);
    if (i == snapshots.size() / 2) resumed = drain_and_checkpoint(sim);
  }

  const bool identical = checkpointed == reference && resumed == reference;
  const double overhead =
      base_seconds > 0 ? checkpointed_seconds / base_seconds - 1.0 : 0.0;
  const double mean_snapshot_bytes =
      static_cast<double>(snapshot_bytes_total) / snapshots.size();
  const double serialize_mbps = serialize_seconds > 0
      ? snapshot_bytes_total / serialize_seconds / 1e6 : 0.0;
  const double deserialize_mbps = deserialize_seconds > 0
      ? snapshot_bytes_total / deserialize_seconds / 1e6 : 0.0;

  std::cout << "=== Snapshot checkpoint/restore benchmark ===\n"
            << "workload: " << num_jobs << " jobs, " << scheduler << ", "
            << checkpoints << " checkpoints, best of " << reps << " reps\n\n";
  TextTable table({"metric", "value"});
  table.add_row({"uninterrupted run (s)", TextTable::num(base_seconds)});
  table.add_row({"checkpointed run (s)", TextTable::num(checkpointed_seconds)});
  table.add_row({"checkpoint overhead", TextTable::num(overhead * 100) + " %"});
  table.add_row({"mean snapshot size (KB)",
                 TextTable::num(mean_snapshot_bytes / 1e3)});
  table.add_row({"serialize (MB/s)", TextTable::num(serialize_mbps)});
  table.add_row({"deserialize (MB/s)", TextTable::num(deserialize_mbps)});
  table.add_row({"byte-identical resume", identical ? "yes" : "NO"});
  std::cout << table.to_string() << std::endl;

  if (!json_path.empty()) {
    write_file_atomic(json_path, /*binary=*/false, [&](std::ostream& out) {
      out.precision(17);
      out << "{\n  \"bench\": \"snapshot\",\n"
          << "  \"num_jobs\": " << num_jobs << ",\n"
          << "  \"scheduler\": \"" << scheduler << "\",\n"
          << "  \"checkpoints\": " << checkpoints << ",\n"
          << "  \"base_seconds\": " << base_seconds << ",\n"
          << "  \"checkpointed_seconds\": " << checkpointed_seconds << ",\n"
          << "  \"overhead\": " << overhead << ",\n"
          << "  \"mean_snapshot_bytes\": " << mean_snapshot_bytes << ",\n"
          << "  \"serialize_mb_per_s\": " << serialize_mbps << ",\n"
          << "  \"deserialize_mb_per_s\": " << deserialize_mbps << ",\n"
          << "  \"byte_identical\": " << (identical ? "true" : "false")
          << "\n}\n";
    });
    std::cout << "report -> " << json_path << "\n";
  }

  if (!identical) {
    std::cerr << "bench_snapshot: FAIL: restored run diverged from the "
                 "uninterrupted run\n";
    return 1;
  }
  if (guard && overhead > guard_threshold) {
    std::cerr << "bench_snapshot: FAIL: checkpoint overhead "
              << overhead * 100 << " % exceeds the guard threshold "
              << guard_threshold * 100 << " %\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return gurita::run_main(argc, argv, run);
}
