// Open-horizon scheduler daemon (DESIGN.md §15).
//
// The batch harness (exp/experiment.h) answers "how fast does this trace
// finish"; the daemon streams a job source through one simulator instead.
// It drives the engine in sim-time slices (run_to), admitting jobs at their
// arrival instants from either a JSONL feed (workload/feed.h) or the open-loop
// generator (workload/open_loop.h), and keeps four mechanisms on top:
//
//  * Admission control — a bounded FIFO admission queue behind a
//    hysteresis watermark on the active-flow count. An arrival that finds
//    the queue full is shed (reject-new); every shed is a typed kShed
//    trace record.
//  * Graceful drain — a latched SIGTERM/SIGINT (signals.h), the
//    drain_after_sim_time test hook, or source exhaustion stops admission;
//    in-flight work drains to completion under a wall-clock deadline and
//    results export atomically.
//  * Crash recovery — periodic auto-checkpoints (kServiceState snapshots)
//    wrapping a full simulator snapshot with the daemon's own state: source
//    cursor, admission queue, external-id ledger, overload flag. recover()
//    resumes byte-identically, queued-unadmitted jobs included.
//  * State compaction — Simulator::compact() on a sim-time cadence evicts
//    terminal jobs, keeping engine memory O(active); the daemon carries
//    evicted results forward in an external-id ledger so the final export
//    is indistinguishable from an uncompacted run's populations.
//
// Determinism: every decision (admit, queue, shed, compact, checkpoint)
// happens at an event boundary and is a pure function of simulation state
// and the options, so identical feed+seed+options produce byte-identical
// traces, exports and checkpoints; wall-clock only ever *ends* things
// early (the drain deadline), never reorders them.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "exp/experiment.h"
#include "flowsim/simulator.h"
#include "obs/memory.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "topology/fattree.h"
#include "workload/feed.h"
#include "workload/open_loop.h"

namespace gurita::service {

/// Why a job was shed (kShed record field i1).
enum class ShedReason : std::int32_t {
  kQueueFull = 0,  ///< admission queue overflow under overload
  kDrain = 1,      ///< queued at drain start; never admitted
};

/// Overload hysteresis on the active-flow count: the daemon enters
/// overload when the count reaches `high` and leaves it only once it falls
/// under `low`, so the overload bit does not flap at the boundary. The
/// defaults are effectively "off" (sized for fabrics far larger than the
/// tests drive); overload tests lower them.
struct Watermarks {
  std::size_t active_flows_high = 200'000;
  std::size_t active_flows_low = 160'000;
};

struct DaemonOptions {
  std::string scheduler = "gurita";
  int fat_tree_k = 4;
  Rate link_capacity = gbps(10.0);
  std::uint64_t ecmp_salt = 0;

  /// Job source: a parsed feed when `use_feed`, else the open-loop
  /// generator (shape/arrivals/load from `open_loop`, stopping after
  /// `max_jobs` admissions-or-sheds; 0 = unbounded, drain on signal only).
  bool use_feed = false;
  std::vector<FeedJob> feed;
  OpenLoopGenerator::Config open_loop;
  std::uint64_t max_jobs = 500;

  /// Admission queue bound under overload; an arrival that finds it full
  /// is shed.
  std::size_t queue_capacity = 64;
  Watermarks watermarks;

  /// Sim-time cadence of Simulator::compact(); 0 disables compaction
  /// (memory then grows with ever-admitted, as batch runs do).
  Time compact_every = 0.25;

  /// Sim-time cadence of auto-checkpoints to `checkpoint_path` (atomic
  /// overwrite, latest wins); 0 disables.
  Time checkpoint_every = 0;
  std::string checkpoint_path;
  /// Crash simulation: throw snapshot::HaltedError after this many
  /// checkpoints (drivers exit 75, the resume idiom); 0 = never.
  int halt_after_checkpoints = 0;

  /// Wall-clock budget for the post-admission drain; when it expires the
  /// export covers what completed (partial results are still atomic).
  double drain_deadline_wall = 60.0;
  /// Deterministic drain trigger at a sim time (tests, CI): 0 = off.
  Time drain_after_sim_time = 0;
  /// Poll the process signal latch (signals.h). Tests running several
  /// daemons concurrently turn this off — the latch is process-wide.
  bool poll_signals = true;

  /// Trace kinds to record (obs/trace.h); 0 attaches no recorder. The
  /// service kinds (kAdmit/kShed/kDrainStart/kCompact) are in the
  /// default mask.
  std::uint32_t trace_mask = 0;
  /// Interval-sampler cadence (kSample/kMemSample timelines plus the
  /// MemoryAccountant peaks in the report); 0 = off. Requires a trace mask
  /// that includes the timeline kinds.
  Time sample_every = 0;

  /// Hard wall on simulated time (deadlock guard), forwarded to the engine.
  Time max_sim_time = std::numeric_limits<Time>::infinity();
};

struct DaemonReport {
  /// One-entry comparison (keyed by the scheduler name) ready for
  /// export_traces: the ledger-merged populations, engine counters and the
  /// full trace.
  ComparisonResult comparison;

  std::uint64_t admitted = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_drain = 0;
  /// Terminal jobs harvested (completed + failed).
  std::uint64_t completed = 0;
  std::uint64_t compactions = 0;
  std::uint64_t checkpoints = 0;

  /// p99 admission wait (sim seconds) over the last 512 admissions at the
  /// end of the run — the daemon's "scheduling latency" headline.
  /// Window-bounded so a recovered run reports the same value an
  /// uninterrupted one does.
  Time p99_wait = 0;

  /// Signal number that triggered the drain; 0 for a natural end (source
  /// exhausted) or the drain_after_sim_time hook.
  int drain_cause = 0;
  bool drain_deadline_expired = false;
  Time final_sim_time = 0;

  std::size_t peak_queue_depth = 0;
  std::size_t peak_active_flows = 0;
  std::size_t peak_calendar = 0;
  /// Peak simultaneously-registered jobs in the engine stores — the O(active)
  /// compaction bound made observable (without compaction this equals the
  /// total ever admitted).
  std::size_t peak_live_jobs = 0;
  /// MemoryAccountant peak of the engine state stores (bytes); populated
  /// only when sample_every > 0.
  std::uint64_t peak_state_bytes = 0;
};

class Daemon {
 public:
  /// Validates the options (ConfigError on contradictions: no source, bad
  /// watermark ordering, checkpoint cadence without a path, ...).
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Fresh run: admit / step / maintain until the source is exhausted and
  /// the fabric drains, or a drain trigger fires. One-shot.
  [[nodiscard]] DaemonReport run();

  /// Resumes a run from a kServiceState snapshot written by an auto-
  /// checkpoint. The options must match the checkpointed run's (scheduler,
  /// fabric, source fingerprint, queue bound, watermarks, cadences) —
  /// mismatches are aggregated into one ConfigError. Continuation is
  /// byte-identical to the uninterrupted run, queued-but-unadmitted jobs
  /// included. One-shot.
  [[nodiscard]] DaemonReport recover(const std::string& snapshot_path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gurita::service
