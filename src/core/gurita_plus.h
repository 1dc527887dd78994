// GuritaPlus — the clairvoyant upper bound Gurita is compared against in
// Fig. 8: "an enhanced version ... where information on the total amount of
// bytes sent per stage is available and job priority can be adjusted
// spontaneously without concerning TCP out of order problem."
//
// Differences from Gurita:
//   * No δ staleness: Ψ is recomputed from exact state at every rate
//     recomputation.
//   * Exact dimensions: ω = 1 − k/k_total with the true stage count;
//     ℓ_max / width / ε from true *in-flight (remaining)* bytes per flow.
//   * Exact critical path: computed from the job DAG at arrival
//     (costs = ℓ_max at line rate), no AVA estimation.
//   * Priorities move freely in both directions (no demote-only rule).
#pragma once

#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "flowsim/scheduler.h"
#include "sched/thresholds.h"

namespace gurita {

class GuritaPlusScheduler final : public Scheduler {
 public:
  struct Config {
    int queues = 4;
    double first_threshold = 2e7;
    double multiplier = 16.0;
    double gamma = 0.25;
    double beta = 0.5;
    bool use_critical_path = true;
    bool starvation_mitigation = true;
  };

  GuritaPlusScheduler() : GuritaPlusScheduler(Config{}) {}
  explicit GuritaPlusScheduler(const Config& config);

  [[nodiscard]] std::string name() const override { return "gurita_plus"; }

  void on_job_arrival(const SimJob& job, Time now) override;
  void on_coflow_finish(const SimCoflow& coflow, Time now) override;
  /// kSchedulerStateLoss clears the traced-queue map only: the clairvoyant
  /// policy re-derives every queue from exact state at the next assign(), so
  /// a controller restart costs it nothing — which is precisely why Fig. 8
  /// treats it as the upper bound. Critical-path membership is DAG
  /// knowledge (recomputable from the job spec), not learned state, and
  /// survives the loss.
  void on_fault(const FaultEvent& event, Time now) override;
  /// Drops the failed job's critical-path vector and traced queues.
  void on_job_fail(const SimJob& job, Time now) override;
  /// Re-keys the critical-path and traced-queue tables across an engine
  /// compaction. Local coflow indices are preserved by whole-job eviction,
  /// so the per-job membership vectors travel unchanged.
  void on_compact(const CompactionRemap& remap) override;
  void assign(Time now, const std::vector<SimFlow*>& active) override;
  /// Checkpoint hooks (DESIGN.md §12): critical-path membership (DAG
  /// knowledge computed at arrival) and the traced-queue map (needed so a
  /// restored run emits kQueueChange records on exactly the same
  /// transitions). Serialized in sorted-key order; the tables stay
  /// unordered (assign() never iterates them).
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  Config config_;
  ExpThresholds thresholds_;
  /// Critical-path membership per job (indexed by local coflow index).
  std::unordered_map<JobId, std::vector<bool>> on_critical_;
  /// Last traced queue per live coflow (tracing only). Unlike Gurita's
  /// demote-only coflow_queue_, the clairvoyant policy re-derives queues
  /// from scratch each recomputation, so this map exists purely to emit
  /// kQueueChange records in both directions on actual transitions.
  std::unordered_map<CoflowId, int> last_queue_;
};

}  // namespace gurita
