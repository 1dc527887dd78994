// MCS — multi-attribute coflow scheduling (Wang et al., cited in the
// paper's related work): "schedules coflows according to number of flows
// and flow length of a coflow".
//
// Per-coflow signal = width × observed largest flow — exactly Gurita's
// horizontal × vertical blocking area, but with *no* stage awareness
// (no ω), no skew adjustment (no ε) and no per-job aggregation. Its place
// in this reproduction is as a built-in ablation: it isolates how much of
// Gurita's win comes from the multi-stage treatment versus the raw
// two-dimensional coflow size signal.
//
// Coflows are demoted through exponentially spaced thresholds on that
// signal and enforced with strict priority queues.
#pragma once

#include <unordered_map>

#include "common/units.h"
#include "flowsim/scheduler.h"
#include "sched/thresholds.h"

namespace gurita {

class McsScheduler final : public Scheduler {
 public:
  struct Config {
    int queues = 4;
    /// First threshold on the width × ℓ_max signal (byte-scaled).
    double first_threshold = 2e7;
    double multiplier = 16.0;
    Time update_interval = 8 * kMillisecond;
  };

  McsScheduler() : McsScheduler(Config{}) {}
  explicit McsScheduler(const Config& config)
      : config_(config),
        thresholds_(config.queues, config.first_threshold, config.multiplier) {}

  [[nodiscard]] std::string name() const override { return "mcs"; }

  [[nodiscard]] Time tick_interval() const override {
    return config_.update_interval;
  }
  bool on_tick(Time now) override;
  void on_coflow_release(const SimCoflow& coflow, Time now) override;
  void on_coflow_finish(const SimCoflow& coflow, Time now) override;
  /// Scheduler-state loss: every live coflow goes back to queue 0.
  void on_fault(const FaultEvent& event, Time now) override;
  /// Drops the failed job's coflows from the queue table.
  void on_job_fail(const SimJob& job, Time now) override;
  /// Re-keys the stale queue table across an engine compaction.
  void on_compact(const CompactionRemap& remap) override;
  void assign(Time now, const std::vector<SimFlow*>& active) override;
  /// Checkpoint hooks (DESIGN.md §12): the stale queue table, serialized in
  /// sorted-key order. The map itself may stay unordered — on_tick updates
  /// each entry independently (no FP folds, no trace records), so its
  /// iteration order is unobservable.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  Config config_;
  ExpThresholds thresholds_;
  std::unordered_map<CoflowId, int> queue_of_;
};

}  // namespace gurita
