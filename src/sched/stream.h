// Stream — decentralized opportunistic inter-coflow scheduling (Susanto et
// al., ICNP'16), the paper's representative of decentralized
// total-bytes-sent schemes.
//
// A job starts at the highest priority and is demoted as its *accumulated
// total bytes sent across all stages* crosses exponentially spaced
// thresholds; enforcement is SPQ. This is precisely the behaviour the paper
// criticizes: a job that ships many bytes in early stages keeps its low
// priority in later stages even if those stages are tiny ("Stream requires
// larger jobs to transmit at lower priority regardless of the amount of
// bytes sent per stage", §V).
//
// Decentralization is modeled by refreshing the TBS signal only at the
// update interval δ, like Gurita's receivers do.
#pragma once

#include <unordered_map>

#include "common/units.h"
#include "flowsim/scheduler.h"
#include "sched/thresholds.h"

namespace gurita {

class StreamScheduler final : public Scheduler {
 public:
  struct Config {
    int queues = 4;               ///< priority queues (paper uses four)
    Bytes first_threshold = 10 * kMB;
    double multiplier = 10.0;     ///< exponential spacing
    Time update_interval = 8 * kMillisecond;  ///< receiver refresh period
  };

  StreamScheduler() : StreamScheduler(Config{}) {}
  explicit StreamScheduler(const Config& config)
      : config_(config),
        thresholds_(config.queues, config.first_threshold, config.multiplier) {}

  [[nodiscard]] std::string name() const override { return "stream"; }

  [[nodiscard]] Time tick_interval() const override {
    return config_.update_interval;
  }
  bool on_tick(Time now) override;
  void on_job_arrival(const SimJob& job, Time now) override;
  /// Finished and failed jobs leave the queue table.
  void on_job_finish(const SimJob& job, Time) override {
    queue_of_.erase(job.id);
  }
  void on_job_fail(const SimJob& job, Time) override {
    queue_of_.erase(job.id);
  }
  /// Scheduler-state loss: every live job goes back to queue 0.
  void on_fault(const FaultEvent& event, Time now) override;
  /// Re-keys the per-job queue table across an engine compaction.
  void on_compact(const CompactionRemap& remap) override;
  void assign(Time now, const std::vector<SimFlow*>& active) override;
  /// Checkpoint hooks (DESIGN.md §12): the stale per-job queue table,
  /// serialized in sorted-key order (on_tick's per-entry updates are
  /// order-independent, so the map itself may stay unordered).
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  Config config_;
  ExpThresholds thresholds_;
  /// Live jobs' priority as of the last δ refresh (stale between ticks).
  std::unordered_map<JobId, int> queue_of_;
};

}  // namespace gurita
