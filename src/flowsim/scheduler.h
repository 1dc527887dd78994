// Scheduler policy interface.
//
// The engine owns mechanism (events, DAG release, rate allocation); a
// Scheduler owns policy: it observes simulation events and, whenever rates
// must be recomputed, gives each coflow a (tier, weight) priority through
// set_priority that the tiered weighted max-min allocator turns into rates.
//
// Decentralized schemes must restrict themselves to information a receiver
// could observe locally (bytes received, open connections) refreshed at
// their tick interval; centralized schemes (Aalo, GuritaPlus) may read the
// full SimState instantaneously — mirroring the paper's simulation setup.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "fault/fault.h"
#include "flowsim/state.h"
#include "obs/trace.h"
#include "snapshot/codec.h"

namespace gurita {

/// Id renumbering produced by Simulator::compact() (open-horizon state
/// eviction, DESIGN.md §15): terminal jobs leave the stores and every
/// surviving entity is renumbered densely. Each map is indexed by the OLD
/// id value and holds the NEW id value, or kEvicted for entities that left.
/// Renumbering is monotone: surviving ids keep their relative order, so
/// sorted-key serialization stays sorted after remapping.
struct CompactionRemap {
  static constexpr std::uint64_t kEvicted = ~0ull;
  std::vector<std::uint64_t> job_map;
  std::vector<std::uint64_t> coflow_map;
  std::vector<std::uint64_t> flow_map;

  [[nodiscard]] bool job_evicted(JobId id) const {
    return job_map[id.value()] == kEvicted;
  }
};

/// Rebuilds an id-keyed policy table across a compaction: drops entries
/// whose key maps to CompactionRemap::kEvicted and re-keys the survivors.
/// `id_map` must be the remap table matching the map's key family
/// (job_map for JobId keys, coflow_map for CoflowId keys). Works for both
/// ordered and unordered maps; monotone renumbering keeps ordered maps
/// sorted without re-comparison surprises.
template <typename Map>
void remap_table(Map& table, const std::vector<std::uint64_t>& id_map) {
  using Key = typename Map::key_type;
  Map out;
  for (auto& [key, value] : table) {
    const std::uint64_t to = id_map[key.value()];
    if (to == CompactionRemap::kEvicted) continue;
    out.emplace(Key{to}, std::move(value));
  }
  table = std::move(out);
}

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the run; `state` outlives the scheduler's use.
  virtual void attach(const SimState& state) { state_ = &state; }

  virtual void on_job_arrival(const SimJob& job, Time now) {
    (void)job;
    (void)now;
  }
  /// A coflow's dependencies completed; its flows just started.
  virtual void on_coflow_release(const SimCoflow& coflow, Time now) {
    (void)coflow;
    (void)now;
  }
  virtual void on_flow_finish(const SimFlow& flow, Time now) {
    (void)flow;
    (void)now;
  }
  virtual void on_coflow_finish(const SimCoflow& coflow, Time now) {
    (void)coflow;
    (void)now;
  }
  virtual void on_job_finish(const SimJob& job, Time now) {
    (void)job;
    (void)now;
  }

  // --- fault-injection extension (fault/fault.h, DESIGN.md §11) ---

  /// A fault struck (a non-recovery FaultKind). Delivered after the engine
  /// has aborted the affected flows, so state() already reflects the damage.
  /// The contract for kSchedulerStateLoss: drop every piece of learned
  /// control state (priority tables, history estimators) and rebuild from
  /// what a freshly restarted scheduler could re-derive by observing the
  /// live population — typically re-admitting every released unfinished
  /// coflow at the highest-priority level. The default ignores faults,
  /// which is correct only for stateless policies.
  virtual void on_fault(const FaultEvent& event, Time now) {
    (void)event;
    (void)now;
  }
  /// A recovery fired (kHostUp / kLinkUp / kStragglerEnd). Delivered before
  /// the engine re-schedules parked flows.
  virtual void on_recover(const FaultEvent& event, Time now) {
    (void)event;
    (void)now;
  }
  /// A job exhausted its retry budget (or a needed recovery never comes)
  /// and was marked failed; its surviving flows were cancelled. Schedulers
  /// holding per-job or per-coflow entries must drop them here — the job
  /// never reaches on_job_finish.
  virtual void on_job_fail(const SimJob& job, Time now) {
    (void)job;
    (void)now;
  }

  /// The engine compacted its stores (Simulator::compact()): terminal jobs
  /// were evicted and every surviving job/coflow/flow id was renumbered per
  /// `remap`. Schedulers holding id-keyed state must drop entries whose key
  /// maps to CompactionRemap::kEvicted and re-key the survivors. Delivered
  /// at an event boundary; state() already reflects the new numbering. The
  /// default ignores it, which is correct only for stateless policies.
  virtual void on_compact(const CompactionRemap& remap) { (void)remap; }

  /// Periodic coordination interval (δ). 0 disables ticks. For Gurita this
  /// is the head-receiver update period; information the scheduler uses in
  /// assign() should be refreshed here, not read fresh, to model staleness.
  [[nodiscard]] virtual Time tick_interval() const { return 0; }

  /// Returns true if the tick changed any priority assignment — only then
  /// does the engine recompute rates, so no-op ticks stay cheap.
  virtual bool on_tick(Time now) {
    (void)now;
    return false;
  }

  /// Called immediately before each rate recomputation; must set_priority
  /// every coflow with a flow in `active`, every call (a restored run
  /// starts all coflows at the default). `active` is the engine's active
  /// list (arrival order modulo swap-with-last removals); do not rely on
  /// its order. The default writes nothing: (0, 1.0) is fair sharing.
  virtual void assign(Time now, const std::vector<SimFlow*>& active) {
    (void)now;
    (void)active;
  }

  // --- checkpoint/restore extension (snapshot/, DESIGN.md §12) ---

  /// Serializes every piece of mutable policy state into `w`. The engine's
  /// checkpoint embeds these bytes in a length-prefixed section, so a
  /// scheduler may write nothing (the default, correct only for stateless
  /// policies) or any self-describing payload. Determinism contract: the
  /// bytes must be a pure function of the scheduler's logical state —
  /// serialize unordered containers in sorted key order, never by bucket
  /// iteration, so that checkpoint(checkpoint(restore(x))) == x.
  virtual void save_state(snapshot::Writer& w) const { (void)w; }

  /// Inverse of save_state. Called after attach() on a freshly constructed
  /// scheduler (same config as the checkpointed one); must leave the policy
  /// in a state whose future decisions are byte-identical to the original's.
  virtual void load_state(snapshot::Reader& r) { (void)r; }

  /// Attaches a structured trace sink (obs/trace.h) for decision records —
  /// queue transitions with their Ψ̈ factor breakdown, WRR weight snapshots,
  /// heavy-job marks. The engine wires this automatically when its own
  /// Config::trace is set; tests driving a scheduler through another engine
  /// (the differential oracle) call it directly. nullptr detaches. Virtual
  /// so forwarding wrappers (perfbench's TracedScheduler) can hand the
  /// recorder to the policy they wrap.
  virtual void set_trace_recorder(obs::TraceRecorder* recorder) {
    trace_ = recorder;
  }

 protected:
  [[nodiscard]] const SimState& state() const {
    GURITA_CHECK_MSG(state_ != nullptr, "scheduler used before attach()");
    return *state_;
  }

  /// Gives coflow `id` its priority: lower tiers are served strictly
  /// first, weights (> 0) split a tier. Rewriting an unchanged one is free.
  void set_priority(CoflowId id, Tier tier, double weight) {
    PriorityWriter* writer = state().writer_;
    GURITA_CHECK_MSG(writer != nullptr, "state has no priority writer");
    writer->set(id, tier, weight);
  }

  /// The attached trace sink, or nullptr. Emission sites follow the engine's
  /// pattern: null-check, then the inlined wants() bit test, then build.
  [[nodiscard]] obs::TraceRecorder* trace_recorder() const { return trace_; }

 private:
  const SimState* state_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace gurita
