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
//   * Exact critical path: computed from the job DAG (costs = ℓ_max at
//     line rate), no AVA estimation.
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

  void on_coflow_finish(const SimCoflow& coflow, Time now) override;
  /// kSchedulerStateLoss clears the traced-queue map only: the clairvoyant
  /// policy re-derives every queue from exact state at the next assign(), so
  /// a controller restart costs it nothing — which is precisely why Fig. 8
  /// treats it as the upper bound. Critical-path membership is DAG
  /// knowledge (recomputable from the job spec), not learned state, and
  /// survives the loss.
  void on_fault(const FaultEvent& event, Time now) override;
  /// Drops the failed job's traced queues.
  void on_job_fail(const SimJob& job, Time now) override;
  /// Re-keys the traced-queue table across an engine compaction and clears
  /// the critical-path cache (its job ids were renumbered).
  void on_compact(const CompactionRemap& remap) override;
  void assign(Time now, const std::vector<SimFlow*>& active) override;
  /// Checkpoint hooks (DESIGN.md §12): the traced-queue map (needed so a
  /// restored run emits kQueueChange records on exactly the same
  /// transitions), serialized in sorted-key order; the table stays
  /// unordered (assign() never iterates it). The critical-path cache is a
  /// pure function of the job specs and is not saved.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  /// Whether local coflow `index` of `job` lies on the job DAG's critical
  /// path; computes and caches the job's membership on first use.
  bool on_critical_path(JobId job, int index);

  Config config_;
  ExpThresholds thresholds_;
  /// Critical-path membership per job (indexed by local coflow index),
  /// cached from the job spec's DAG by on_critical_path().
  std::unordered_map<JobId, std::vector<bool>> on_critical_;
  /// Last traced queue per live coflow (tracing only). Unlike Gurita's
  /// demote-only coflow_queue_, the clairvoyant policy re-derives queues
  /// from scratch each recomputation, so this map exists purely to emit
  /// kQueueChange records in both directions on actual transitions.
  std::unordered_map<CoflowId, int> last_queue_;
};

}  // namespace gurita
