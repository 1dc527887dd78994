// Event-driven flow-level network simulator.
//
// This is the evaluation substrate the paper describes in §V: "a flow-level
// simulator [that] accounts for the flow arrival and departure events,
// rather than packet sending and receiving events. It updates the rate and
// the remaining volume of each flow when an event occurs."
//
// Fluid model: between events every flow transfers at a constant rate
// computed by the tiered weighted max-min allocator; events are job
// arrivals, flow completions (computed analytically), DAG releases and
// scheduler coordination ticks (δ). ECMP assigns each flow a stable path
// through the fat-tree at release time.
//
// The engine is incremental: completions come from an indexed min-heap
// event calendar holding each flow's projected finish time, and
// bytes drain lazily per flow from (last_touched, rate) instead of a
// whole-active-set sweep per event. Per-event work is therefore
// proportional to the flows whose rate actually changed, not to the number
// of active flows. DESIGN.md ("Event-calendar engine") documents the
// invariants.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/units.h"
#include "coflow/job.h"
#include "fault/fault.h"
#include "flowsim/allocator.h"
#include "flowsim/calendar.h"
#include "flowsim/scheduler.h"
#include "flowsim/state.h"
#include "obs/memory.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "topology/fabric.h"

namespace gurita {

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

/// Outcome of one simulation run.
struct SimResults {
  struct JobResult {
    JobId id;
    Time arrival = 0;
    Time finish = 0;
    Bytes total_bytes = 0;
    int num_stages = 1;
    /// Abandoned by fault injection (retry budget exhausted / unrecoverable);
    /// `finish` is the abandonment time, not a completion. Excluded from
    /// JCT statistics.
    bool failed = false;
    [[nodiscard]] Time jct() const { return finish - arrival; }
  };
  struct CoflowResult {
    CoflowId id;
    JobId job;
    int stage = 1;
    Time release = 0;
    Time finish = 0;
    Bytes total_bytes = 0;
    /// Belongs to a failed job and never completed (possibly never even
    /// released: release and finish stay -1). Excluded from CCT statistics.
    bool failed = false;
    [[nodiscard]] Time cct() const { return finish - release; }
  };

  std::vector<JobResult> jobs;
  std::vector<CoflowResult> coflows;
  Time makespan = 0;
  std::uint64_t rate_recomputations = 0;

  // --- engine-cost counters (speedup tracking across PRs) ---
  /// Main-loop iterations, including idle jumps to the next arrival.
  std::uint64_t events = 0;
  /// Per-flow units of work the event-calendar engine performed: flow
  /// releases, settles/re-keys after a rate change, completion pops and
  /// finishes. Every calendar pop is a completion: re-keys update a flow's
  /// one entry in place, so no stale entries are left to pop.
  std::uint64_t flow_touches = 0;

  // --- fault-injection accounting (fault/fault.h; all zero without a
  // fault plan) ---
  /// Flow aborts caused by host/link faults (including park-at-release).
  std::uint64_t flow_aborts = 0;
  /// Retries that actually restarted a flow.
  std::uint64_t flow_retries = 0;
  /// Jobs abandoned after a flow exhausted its retry budget or could never
  /// recover.
  std::uint64_t failed_jobs = 0;
  /// In-flight bytes lost to aborts (work destroyed by faults).
  Bytes bytes_lost = 0;
  /// Lost bytes that were eventually re-sent by flows that finished
  /// (bytes_lost minus the losses of cancelled flows).
  Bytes bytes_retransmitted = 0;
  /// Sum over retries of (restart time − abort time): time flows spent
  /// parked or backing off before re-entering.
  Time total_recovery_latency = 0;

  // --- telemetry (populated by the experiment harness when enabled) ---
  /// Structured trace of the run (obs/trace.h); empty unless a recorder was
  /// attached. ComparisonResult::absorb appends traces in replicate order
  /// with job/coflow ids re-based alongside the pooled populations (flow
  /// ids and timestamps stay run-local).
  std::vector<obs::TraceRecord> trace;
  /// Phase-time breakdown of the run (obs/profiler.h); all-zero unless a
  /// profiler was attached. absorb() sums profiles across runs.
  obs::PhaseProfile profile;
  /// Individual phase slices (obs/profiler.h); empty unless the attached
  /// profiler had span capture enabled. Wall-clock telemetry, outside the
  /// determinism contract: never serialized, never fingerprinted. absorb()
  /// concatenates spans in replicate order.
  std::vector<obs::PhaseSpan> spans;

  /// Non-deterministic run health (allocator work counters, reserved
  /// memory footprint). Populated by the experiment harness only when
  /// diagnostics are requested; excluded from determinism fingerprints
  /// and snapshots — a restored run re-solves everything on
  /// its first allocation, so these legitimately differ between a resumed
  /// and an uninterrupted run whose simulation bytes are identical.
  struct Diagnostics {
    AllocStats alloc;
    obs::MemoryAccountant memory;
    void merge(const Diagnostics& other) {
      alloc.merge(other.alloc);
      memory.merge(other.memory);
    }
  };
  Diagnostics diagnostics;

  /// Folds another run's cost counters (events, flow_touches,
  /// rate_recomputations, the fault counters and byte/latency totals) and
  /// makespan into this result. Counters are strictly per-run — the engine only ever writes
  /// the SimResults of its own run() — and pooling across runs happens
  /// through this explicit merge, so parallel sweeps aggregate them
  /// deterministically in merge order instead of interleaving updates.
  /// Does not touch jobs/coflows (population pooling re-ids those), nor
  /// the trace/profile telemetry (absorb() pools those).
  void merge_counters(const SimResults& other);

  /// Projects the engine-cost counters into a registry ("engine.events",
  /// "engine.flow_touches", "engine.rate_recomputations"), the integer fault counters
  /// ("fault.flow_aborts", "fault.flow_retries", "fault.failed_jobs"),
  /// plus the "engine.makespan" gauge. The double-valued fault totals
  /// (bytes, latency) are deliberately not exported: registry gauges fold
  /// by max, which would disagree with merge_counters' summation.
  /// Exporting several runs into one registry agrees with merge_counters
  /// (counters sum, makespan maxes) — the regression tests hold the
  /// summary export to those totals at any worker count.
  void export_counters(obs::Registry& registry) const;

  [[nodiscard]] double average_jct() const;
  [[nodiscard]] double average_cct() const;
};

class Simulator {
 public:
  /// Hard wall on main-loop iterations (SimResults::events); exceeding it
  /// throws with diagnostics (live-lock guard).
  static constexpr std::uint64_t kMaxIterations = 500'000'000;

  struct Config {
    /// Hard wall on simulated time; exceeding it throws (deadlock guard).
    Time max_time = std::numeric_limits<Time>::infinity();
    /// Fault plan (host crashes, link flaps, stragglers, scheduler-state
    /// loss) with abort/retry semantics — see fault/fault.h. Validated at
    /// construction. An empty plan leaves the engine's behaviour and
    /// results byte-identical to a build without fault support. The plan
    /// is the only thing that changes a link's capacity mid-run.
    FaultPlan faults;
    /// Structured trace sink (obs/trace.h), or nullptr for no tracing. The
    /// engine emits event records and hands the recorder to the scheduler
    /// (Scheduler::set_trace_recorder) so decision records interleave in
    /// emission order. Must outlive run(). Disabled-path cost: one pointer
    /// null-check per emission site.
    obs::TraceRecorder* trace = nullptr;
    /// Engine phase profiler (obs/profiler.h), or nullptr. Timing only —
    /// attaching a profiler never changes simulation results.
    obs::PhaseProfiler* profiler = nullptr;
    /// Deterministic interval sampler (obs/sampler.h), or nullptr. Requires
    /// Config::trace: samples are emitted into the recorder as kSample /
    /// kMemSample records. Polled after every
    /// processed event; sim-time sample fields are pure functions of the
    /// serialized engine state, so timelines are byte-identical across
    /// worker counts and checkpoint/restore splits (DESIGN.md §14). Must
    /// outlive run().
    obs::IntervalSampler* sampler = nullptr;
    /// Reserved-footprint accountant (obs/memory.h), or nullptr.
    /// Capacity-based diagnostics only — excluded from determinism
    /// fingerprints. Observed at every sampler boundary (if a sampler is
    /// set) and once at collect(). Must outlive run().
    obs::MemoryAccountant* memory = nullptr;
  };

  /// `fabric` and `scheduler` must outlive the simulator. Any Fabric
  /// works: the paper's fat-tree or the big-switch abstraction.
  Simulator(const Fabric& fabric, Scheduler& scheduler, Config config);
  Simulator(const Fabric& fabric, Scheduler& scheduler)
      : Simulator(fabric, scheduler, Config{}) {}

  /// Registers a job (validated against the fabric). All jobs must be
  /// submitted before run(). Returns the assigned job id.
  JobId submit(const JobSpec& job);

  /// Open-horizon admission: registers a job *while the run is open*
  /// (after prepare()/restore(), before results were collected). Legal only
  /// at an event boundary — between run_to() calls. The job's
  /// arrival_time may lie at or after now(); an arrival at or before now()
  /// is processed by the next event at the current clock. Grows the flow
  /// store when needed (re-pointing the active set and rebuilding the
  /// allocator — a pure re-solve, so rates and results are unaffected).
  /// Returns the assigned job id.
  JobId admit(const JobSpec& job);

  /// The one pause primitive: processes every event with time strictly
  /// below `bound`, then pauses in the step that would advance the clock
  /// to or beyond it — after that step's allocation at the current clock,
  /// before the clock moves (the iteration is rolled back, so a
  /// paused+resumed run counts exactly the events an uninterrupted one
  /// does). Makes no progress when the next event lies at or beyond
  /// `bound`, so callers slicing time ratchet the bound forward. Pausing
  /// never perturbs the run: admit() at the pause point behaves as if the
  /// job had been submitted up front, and checkpoint() captures the
  /// boundary losslessly. With `bound` = +infinity it drains the run (no
  /// pause). Returns true while work remains.
  bool run_to(Time bound);

  /// Outcome of one compact() pass: the evicted jobs' results, harvested
  /// exactly as collect() would have reported them (ids are the
  /// pre-compaction ids), and the renumbering the scheduler received via
  /// on_compact, for callers that track external ids (complete only when
  /// jobs_evicted > 0; the scheduler is not notified otherwise).
  struct Compaction {
    std::size_t jobs_evicted = 0;
    std::size_t coflows_evicted = 0;
    std::size_t flows_evicted = 0;
    std::vector<SimResults::JobResult> jobs;
    std::vector<SimResults::CoflowResult> coflows;
    CompactionRemap remap;
  };

  /// Open-horizon state eviction: removes every terminal (finished or
  /// failed) job with its coflows and flows from the stores, renumbers the
  /// survivors densely and monotonically, remaps the completion and retry
  /// calendars in place, rebuilds the allocator, and notifies the scheduler
  /// (on_compact). Steady-state memory under sustained admission is
  /// therefore O(active) instead of O(ever-submitted). Legal only at an
  /// event boundary. Determinism is per-configuration: identical inputs
  /// and compaction cadence give byte-identical everything. On a fabric
  /// whose routes ignore the flow id (BigSwitch) a compacted run is
  /// identical to an uncompacted one — finishes, events and flow_touches
  /// (EventCalendar.CompactionKeepsEveryCounter). On a fat-tree the two
  /// agree job-for-job in population but not in trajectory: ECMP hashes the
  /// flow id (FatTree::route), and compaction renumbers ids, so flows
  /// released after a compaction can take different paths (ROADMAP: key
  /// routing by a compaction-stable flow identity).
  Compaction compact();

  /// Runs every remaining event and returns the results: run_to(+infinity)
  /// then collect. Serves a fresh run, one paused by run_to() and one
  /// rebuilt by restore() alike; any sequence of run_to() pauses followed
  /// by run() is byte-identical to a single run(). May be called once.
  SimResults run();

  /// Current simulation clock (the time of the last processed event).
  [[nodiscard]] Time now() const { return now_; }

  // --- open-horizon observability (watermark inputs for the service
  // daemon; every value is a pure function of the serialized state, so
  // shedding decisions built on them are deterministic) ---
  /// Work remains: pending arrivals, active flows or parked/retrying flows.
  [[nodiscard]] bool pending() const {
    return next_arrival_ < arrival_order_.size() || !active_.empty() ||
           !parked_.empty() || !retries_.empty();
  }
  [[nodiscard]] std::size_t active_flow_count() const {
    return active_.size();
  }
  [[nodiscard]] std::size_t calendar_size() const { return calendar_.size(); }
  /// Partial counters of the in-progress run (events, flow_touches, ...).
  /// Valid between prepare()/restore() and collect().
  [[nodiscard]] const SimResults& partial_results() const { return results_; }
  /// The run is open: prepared (or restored) and not yet collected.
  [[nodiscard]] bool open() const { return prepared_ && !collected_; }

  /// Serializes the complete dynamic simulation state — event calendar
  /// (its live entries, one per flow with a projected finish), per-coflow
  /// aggregates, flow progress, parked/retry fault state, fault-plan
  /// cursor, partial result counters, the attached trace recorder's buffer
  /// and the scheduler's policy state (Scheduler::save_state) — into `w`.
  /// Must be called at an event boundary (a run_to() pause); const,
  /// so checkpointing never perturbs the run. Implemented in
  /// snapshot/snapshot.cpp (link gurita_snapshot to use it).
  void checkpoint(snapshot::Writer& w) const;

  /// Inverse of checkpoint(): rebuilds the simulator mid-run from `r`.
  /// Contract: the simulator must be freshly constructed with an *identical*
  /// fabric, scheduler, config and submitted job set as the checkpointed
  /// one (the snapshot carries a fingerprint and throws SnapshotError on a
  /// mismatch) — the snapshot holds dynamic state only, so static structure
  /// (topology, specs, routes) is reconstructed from those inputs. After
  /// restore, run_to()/run() continue byte-identically to the
  /// uninterrupted run. Implemented in snapshot/snapshot.cpp.
  void restore(snapshot::Reader& r);

  [[nodiscard]] const SimState& state() const { return state_; }

  /// Allocator work counters (flowsim/allocator.h). Diagnostic only —
  /// deliberately not part of SimResults: a restored run re-solves
  /// everything on its first allocation, so these differ between a resumed
  /// and an uninterrupted run whose simulation bytes are identical.
  [[nodiscard]] const AllocStats& allocator_stats() const {
    return alloc_.stats();
  }

 private:
  friend class SnapshotCodec;  ///< snapshot/snapshot.cpp serializer
  const Fabric* fabric_;
  Scheduler* scheduler_;
  Config config_;
  SimState state_;
  /// prepare() (or restore()) has initialized the run-loop state.
  bool prepared_ = false;
  /// collect() has harvested the results; the simulator is spent.
  bool collected_ = false;

  /// Persistent active set (raw pointers into state_.flows_, which is
  /// reserved up front so it never reallocates mid-run). Removal is
  /// swap-with-last via pos_in_active_, so the order is arrival order
  /// modulo those swaps — schedulers and the allocator are order-blind.
  std::vector<SimFlow*> active_;
  /// Index of each flow in active_ (by flow id; stale once removed).
  std::vector<std::uint32_t> pos_in_active_;
  /// Completion calendar: each active flow's projected zero-drain time,
  /// one entry per flow, re-keyed in place on every rate change and erased
  /// on every finish, abort and job failure (flowsim/calendar.h).
  FlowCalendar calendar_;
  /// Scratch for rate-change reporting (reused across events).
  std::vector<RateChange> rate_changes_;
  /// The incremental rate allocator. Holds only state rebuildable from the
  /// active set (rebuild()), so snapshots don't serialize it.
  RateAllocator alloc_;
  /// The run's priority writer (state.h); schedulers reach it via state_.
  PriorityWriter writer_{&state_, &alloc_};
  /// Flows whose stored rate was capped below their pure allocation at the
  /// last recomputation (straggler windows). Re-touched before
  /// every allocation: the allocator must re-report them (allocation !=
  /// stored rate) exactly as a from-scratch solve would. Rebuilt each
  /// recomputation from the application loop; not serialized — a restored
  /// run's first allocation re-solves everything, which subsumes it.
  std::vector<FlowId> capped_;
  /// Results of the in-progress run (settles and finishes accrue counters).
  /// Owned here (not a run() local) so a paused run's partial counters are
  /// part of the snapshot; collect() moves it out.
  SimResults results_;

  // --- run-loop state (locals of the old monolithic run(), hoisted so a
  // run can pause at any event boundary and the pause state is exactly
  // these members; everything here is either serialized by checkpoint() or
  // recomputed by prepare()/restore() from the static inputs) ---
  /// Job ids sorted by (arrival_time, id); recomputed, not serialized.
  std::vector<JobId> arrival_order_;
  std::size_t next_arrival_ = 0;
  /// Scheduler coordination interval; cached from tick_interval().
  Time tick_ = 0;
  Time next_tick_ = std::numeric_limits<Time>::infinity();
  /// Scratch for the completion pop loop (dead between iterations).
  std::vector<FlowId> done_;

  Time now_ = 0;
  /// Current link capacities (nominal, mutated only by link faults).
  std::vector<Rate> capacities_;
  /// Rates must be recomputed before the next projection (scheduler state,
  /// topology or population changed since the last allocation).
  bool dirty_ = true;

  // --- open-horizon pause state (run_to; DESIGN.md §15) ---
  /// Events at or beyond this time pause instead of executing. +infinity
  /// outside run_to, so batch runs never pause.
  Time horizon_ = std::numeric_limits<Time>::infinity();
  /// step() paused before an event at/beyond horizon_ (transient: reset by
  /// run_to on entry and exit).
  bool paused_at_horizon_ = false;
  /// Flow-store reservation watermark: released flows plus the unreleased
  /// flows of every registered job. admit() grows the store (re-pointing
  /// active_) when a new job pushes this past capacity; release_coflow's
  /// no-reallocation invariant holds against it.
  std::size_t flows_reserved_ = 0;

  // --- fault-injection runtime (all idle unless Config::faults is
  // non-empty; the zero-fault run is byte-identical to a fault-free
  // engine) ---
  bool have_faults_ = false;
  std::vector<FaultEvent> fault_events_;  ///< plan events, sorted by time
  std::size_t next_fault_ = 0;
  std::vector<char> host_down_;      ///< by host index
  std::vector<char> link_down_;      ///< by link id
  std::vector<double> straggler_;    ///< per-host rate factor; 1.0 nominal
  std::vector<Rate> saved_capacity_; ///< pre-fault capacity of downed links
  /// Flows aborted and waiting for every blocking entity to recover.
  std::vector<FlowId> parked_;
  /// Flows backing off before a retry, keyed by restart time: one entry per
  /// flow, ordered by (time, flow id), erased when the flow's job fails.
  /// Indexed only under a fault plan. A flow is in at most one of parked_,
  /// retries_ and the active set; the run cannot end while either fault
  /// queue is non-empty, even if the active set is momentarily empty.
  FlowCalendar retries_;

  /// True while a down host or link blocks this flow from transmitting.
  [[nodiscard]] bool flow_blocked(const SimFlow& flow) const;
  /// Aborts a transmitting (or just-released) flow: in-flight bytes are
  /// lost, the flow leaves the active set and either parks for retry or —
  /// once `count_attempt` pushes it past max_attempts — fails its job.
  void abort_flow(SimFlow& flow, FaultKind cause, bool count_attempt);
  /// Takes a transmitting flow off the network: settles it, destroys its
  /// in-flight bytes (rewinding it to byte zero) and removes it from the
  /// calendar and the active set. Returns the bytes lost.
  Bytes tear_down(SimFlow& flow);
  /// Marks `job` failed at now_: cancels its surviving flows (transmitting
  /// ones are torn down; parked and backing-off ones leave their queue),
  /// emits kJobFail, tells the scheduler.
  void fail_job(SimJob& job);
  /// Moves a parked flow into the retry queue with its backoff delay.
  void schedule_retry(SimFlow& flow);
  /// After a recovery: parked flows whose blockers all recovered get their
  /// retry scheduled.
  void reconsider_parked();
  /// Restarts flows whose retry time has come (re-entering from byte zero).
  void fire_due_retries();
  void apply_fault(const FaultEvent& event);
  void apply_due_faults();
  [[nodiscard]] Time next_retry_time() const;
  /// Both calendars are empty but flows are parked with no recovery left in
  /// the plan: their jobs can never finish — fail them now instead of
  /// simulating forever.
  void fail_stranded_jobs();

  /// Aggregate of the coflow owning `flow`.
  SimState::CoflowAggregate& aggregate_of(const SimFlow& flow);
  /// Settles `flow`'s lazy drain at now_: `remaining` becomes exact,
  /// drained bytes move into the coflow aggregate and per-link stats.
  void settle(SimFlow& flow);
  /// Applies a new rate to a settled flow, keeping aggregates consistent.
  void set_rate(SimFlow& flow, Rate new_rate);
  /// (Re-)keys a settled flow's projected finish in the calendar, or
  /// erases its entry when it has bytes left but no rate.
  void push_key(SimFlow& flow);
  void remove_from_active(SimFlow& flow);

  void release_coflow(SimCoflow& coflow);
  void finish_flow(SimFlow& flow);
  void finish_coflow(SimCoflow& coflow);
  void arrive_job(SimJob& job);
  /// Shared body of submit()/admit(): appends the SimJob and its SimCoflow
  /// records (the spec must already be validated).
  JobId register_job(const JobSpec& spec);
  /// admit() helper: grows the flow store to hold flows_reserved_ flows,
  /// re-pointing the active set and rebuilding the allocator (pure
  /// re-solve; byte-identical rates).
  void grow_flow_store();

  // --- run-loop decomposition (run() == prepare(); while (pending())
  // step(); collect()) ---
  /// Static structures shared by prepare() and restore(): scheduler attach,
  /// flow-store reservation, arrival order, tick cache.
  void prepare_structures();
  /// Full fresh-run initialization (prepare_structures + dynamic defaults).
  void prepare();
  /// One main-loop iteration (one event). Thin wrapper over step_impl()
  /// that polls the interval sampler afterwards, so every exit path of the
  /// event body (idle early-outs included) is sampled.
  void step();
  void step_impl();
  /// Emits due kSample/kMemSample records (Config::sampler) and
  /// refreshes the memory accountant. Called after every event.
  void poll_sampler();
  /// Observes the current reserved footprint into Config::memory.
  void account_memory();
  /// Harvests results_ after the loop drains; may be called once.
  SimResults collect();
  /// One terminal job's or coflow's result, as collect() and compact()
  /// both report it.
  [[nodiscard]] SimResults::JobResult job_result(const SimJob& j) const;
  [[nodiscard]] SimResults::CoflowResult coflow_result(
      const SimCoflow& c) const;
};

}  // namespace gurita
