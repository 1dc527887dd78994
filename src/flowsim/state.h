// Runtime state of the flow-level simulation: flows, coflows and jobs with
// their progress, plus the (tier, weight) priority the active scheduler
// gives each coflow. Schedulers receive `const SimState&` and change only
// priorities, through the engine's PriorityWriter (Scheduler::set_priority).
//
// Lazy byte accounting: the engine does NOT sweep every flow on every
// event. A flow's `remaining` is exact only as of `last_touched` (the last
// time its rate changed); between rate changes it drains linearly at
// `rate`. Use `remaining_at(now)` / `bytes_sent_at(now)` — or the O(1)
// SimState aggregate getters, which fold the linear term in — for values
// that are exact at the current simulation clock (`SimState::now()`).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "coflow/job.h"

namespace gurita {

/// Priority tier: lower value = strictly higher priority. Tiers express SPQ
/// queues (0..Q-1), Baraat's FIFO batch serials, or composite orderings.
using Tier = std::int64_t;

struct SimFlow {
  FlowId id;
  JobId job;
  /// Local coflow index within the owning job.
  int coflow_index = 0;
  int src_host = 0;
  int dst_host = 0;
  Bytes size = 0;
  /// Residual bytes as of `last_touched` (NOT necessarily as of the current
  /// clock — see remaining_at()).
  Bytes remaining = 0;
  Time start_time = -1;
  Time finish_time = -1;
  std::vector<LinkId> path;

  // --- set by the rate allocator each recomputation ---
  Rate rate = 0;
  /// Settle point of the lazy drain: `remaining` is exact at this instant
  /// and drains at `rate` afterwards. Maintained by the engine at every
  /// rate change and at finish.
  Time last_touched = 0;

  // --- the coflow's priority, copied for the kernel by PriorityWriter ---
  Tier tier = 0;
  double weight = 1.0;

  // --- fault bookkeeping (fault/fault.h) ---
  /// Times this flow was aborted by a fault while transmitting; attempt
  /// number of the next retry. Park-at-release (flow born onto a dead
  /// host/link) does not count.
  int attempts = 0;
  /// In-flight bytes lost across all aborts (re-sent on retry).
  Bytes lost_bytes = 0;
  /// When the flow was last aborted; >= 0 exactly while parked or waiting
  /// in the retry queue, -1 while transmitting / finished / cancelled.
  Time abort_time = -1;
  /// Permanently stopped: its job failed. Never transmits again.
  bool cancelled = false;

  [[nodiscard]] bool started() const { return start_time >= 0; }
  [[nodiscard]] bool finished() const { return finish_time >= 0; }
  [[nodiscard]] bool active() const { return started() && !finished(); }
  /// Residual bytes as of the settle point (use remaining_at(now) for a
  /// value that is exact at the current clock).
  [[nodiscard]] Bytes bytes_sent() const { return size - remaining; }
  /// Exact residual bytes at time `now` (>= last_touched): the settled
  /// residue minus the linear drain since the last settle point.
  [[nodiscard]] Bytes remaining_at(Time now) const {
    if (rate <= 0 || now <= last_touched) return remaining;
    const Bytes r = remaining - rate * (now - last_touched);
    return r > 0 ? r : 0.0;
  }
  /// Exact bytes sent at time `now`.
  [[nodiscard]] Bytes bytes_sent_at(Time now) const {
    return size - remaining_at(now);
  }
};

struct SimCoflow {
  CoflowId id;
  JobId job;
  /// Local index within the owning job's JobSpec.
  int index = 0;
  /// 1-based stage of this coflow within the job DAG.
  int stage = 1;
  std::vector<FlowId> flows;
  int flows_remaining = 0;
  int deps_remaining = 0;
  Time release_time = -1;  ///< when dependencies completed and flows started
  Time finish_time = -1;
  /// Priority written by the scheduler; (0, 1.0) — fair sharing — until then.
  Tier tier = 0;
  double weight = 1.0;

  [[nodiscard]] bool released() const { return release_time >= 0; }
  [[nodiscard]] bool finished() const { return finish_time >= 0; }
};

struct SimJob {
  JobId id;
  JobSpec spec;
  /// Global coflow ids of this job's coflows, parallel to spec.coflows.
  std::vector<CoflowId> coflows;
  /// 1-based stage per local coflow index.
  std::vector<int> stage_of;
  int num_stages = 1;
  int coflows_remaining = 0;
  Time arrival_time = 0;
  Time finish_time = -1;
  Bytes total_bytes = 0;
  /// A flow of this job exhausted its retry budget (or could never recover);
  /// the job was abandoned at finish_time with its surviving flows
  /// cancelled. Failed jobs are excluded from JCT statistics.
  bool failed = false;

  [[nodiscard]] bool finished() const { return finish_time >= 0; }
  /// Number of fully completed stages: the largest k such that every coflow
  /// with stage <= k has finished. Maintained by the engine.
  int completed_stages = 0;
};

class RateAllocator;
class SimState;

/// The one writer of priorities (DESIGN.md §13). set() returns at once on
/// a bitwise-equal value; otherwise it stores the priority on the coflow,
/// copies it onto the coflow's unfinished flows and touches each in the
/// allocator, so the next allocation re-solves just their components.
struct PriorityWriter {
  SimState* state;
  RateAllocator* allocator;  ///< null when nothing is incremental (oracle)
  void set(CoflowId id, Tier tier, double weight);
};

/// The complete simulation state; owned by the engine, read by schedulers.
///
/// Per-coflow aggregates (bytes sent, open connections, settled ℓ̈_max) are
/// maintained incrementally at rate-change and finish boundaries, so the
/// byte-count getters below are O(1) in the number of flows (exact at
/// `now()`, folding in the linear drain term), and `coflow_ell_max` only
/// scans the coflow's still-active flows.
class SimState {
 public:
  [[nodiscard]] const SimFlow& flow(FlowId id) const {
    GURITA_CHECK_MSG(id.value() < flows_.size(), "flow id out of range");
    return flows_[id.value()];
  }
  [[nodiscard]] const SimCoflow& coflow(CoflowId id) const {
    GURITA_CHECK_MSG(id.value() < coflows_.size(), "coflow id out of range");
    return coflows_[id.value()];
  }
  [[nodiscard]] const SimJob& job(JobId id) const {
    GURITA_CHECK_MSG(id.value() < jobs_.size(), "job id out of range");
    return jobs_[id.value()];
  }

  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] std::size_t coflow_count() const { return coflows_.size(); }
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }

  /// Current simulation clock (mirrors the engine's event time; all byte
  /// getters below are exact at this instant).
  [[nodiscard]] Time now() const { return now_; }

  /// Bytes sent so far by coflow `id` (sum over its flows). O(1).
  [[nodiscard]] Bytes coflow_bytes_sent(CoflowId id) const;
  /// Total bytes of coflow `id`.
  [[nodiscard]] Bytes coflow_total_bytes(CoflowId id) const;
  /// Largest per-flow bytes sent of coflow `id` (ℓ̈_max as receivers observe
  /// it). O(active flows of the coflow): finished flows are covered by the
  /// settled running max, active flows are extrapolated to now().
  [[nodiscard]] Bytes coflow_ell_max(CoflowId id) const;
  /// Bytes sent so far by job `id` across all stages (the TBS signal the
  /// paper's baselines schedule on). O(coflows of the job).
  [[nodiscard]] Bytes job_bytes_sent(JobId id) const;
  /// Number of currently transmitting (active) flows of coflow `id` —
  /// "open connections" as observed at receivers. O(1).
  [[nodiscard]] int coflow_open_connections(CoflowId id) const;

  /// The live population a restarted scheduler re-derives after a state
  /// loss (Scheduler::on_fault): every job that has arrived by `now` and
  /// not finished, in id order, gets on_job(job) and then on_coflow(c) for
  /// each of its released, unfinished coflows in the job's order.
  template <typename OnJob, typename OnCoflow>
  void for_each_live(Time now, OnJob&& on_job, OnCoflow&& on_coflow) const {
    for (const SimJob& job : jobs_) {
      if (job.finished() || job.arrival_time > now) continue;
      on_job(job);
      for (CoflowId cid : job.coflows) {
        const SimCoflow& coflow = coflows_[cid.value()];
        if (coflow.released() && !coflow.finished()) on_coflow(coflow);
      }
    }
  }

 private:
  friend class Simulator;
  /// The checkpoint/restore serializer (snapshot/snapshot.cpp): reads and
  /// rebuilds the dynamic fields directly rather than replaying events.
  friend class SnapshotCodec;
  /// The differential-oracle reference engine (tests/oracle_sim.h): a
  /// deliberately simple O(active-flows) re-implementation of the
  /// allocation/drain loop that must maintain this state with bit-identical
  /// arithmetic so real schedulers drive both engines to the same
  /// trajectory. Test-only; never linked into the library.
  friend class OracleSimulator;
  friend struct PriorityWriter;
  friend class Scheduler;  ///< set_priority reaches writer_

  /// Incrementally maintained per-coflow aggregate. Invariant, for every
  /// time t between the last boundary and the next rate change:
  ///   bytes_sent(t) = base_bytes + rate_sum * t - rate_time_sum
  /// where base_bytes = Σ_f bytes_sent(last_touched_f),
  ///       rate_sum   = Σ_f rate_f              (active flows), and
  ///       rate_time_sum = Σ_f rate_f * last_touched_f.
  /// The engine updates all three whenever a flow's rate changes or the
  /// flow finishes ("boundaries"); between boundaries the linear form is
  /// exact because every rate is constant.
  struct CoflowAggregate {
    Bytes base_bytes = 0;
    double rate_sum = 0;
    double rate_time_sum = 0;
    /// Running max of per-flow bytes sent over all settle points; covers
    /// every finished flow exactly (they settle at finish with all bytes).
    Bytes ell_max_settled = 0;
    int open_connections = 0;
  };

  std::vector<SimFlow> flows_;
  std::vector<SimCoflow> coflows_;
  std::vector<SimJob> jobs_;
  std::vector<CoflowAggregate> aggregates_;  ///< parallel to coflows_
  Time now_ = 0;
  PriorityWriter* writer_ = nullptr;  ///< the owning engine's
};

}  // namespace gurita
