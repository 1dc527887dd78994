// Aalo — efficient coflow scheduling without prior knowledge (Chowdhury &
// Stoica, SIGCOMM'15): the paper's *centralized* comparator.
//
// Discretized Coflow-Aware Least-Attained Service (D-CLAS): each coflow is
// placed into one of Q priority queues according to the bytes it has sent
// so far, with exponentially spaced queue boundaries; coflows are demoted
// as they send more. Across queues, higher-priority queues are served
// first. Within a queue, Aalo's D-CLAS supports FIFO (by coflow release
// time) or fair sharing among the queue's coflows; with few queues strict
// FIFO over-serializes mid-size coflows, so this implements fair sharing,
// which the Aalo paper reports performing comparably (DESIGN.md §5.1).
//
// Matching the paper's simulation setup, Aalo enjoys a global,
// instantaneous view: its signal is refreshed at every rate recomputation
// with zero coordination delay ("Aalo's additional delay from managing
// centralized system is not considered ... information on job is made
// available instantaneously", §V).
#pragma once

#include <unordered_map>

#include "common/units.h"
#include "flowsim/scheduler.h"
#include "sched/thresholds.h"

namespace gurita {

class AaloScheduler final : public Scheduler {
 public:
  struct Config {
    int queues = 4;
    Bytes first_threshold = 10 * kMB;
    double multiplier = 10.0;
  };

  AaloScheduler() : AaloScheduler(Config{}) {}
  explicit AaloScheduler(const Config& config)
      : thresholds_(config.queues, config.first_threshold, config.multiplier) {}

  [[nodiscard]] std::string name() const override { return "aalo"; }

  void on_coflow_release(const SimCoflow& coflow, Time now) override;
  /// kSchedulerStateLoss models an Aalo coordinator restart: attained-service
  /// queues are forgotten. Live coflows re-register at the highest queue in
  /// deterministic (job, coflow) order; D-CLAS then re-demotes them from the
  /// (still exact) bytes-sent signal at the next recomputation.
  void on_fault(const FaultEvent& event, Time now) override;
  /// Drops the failed job's coflows from the queue table.
  void on_job_fail(const SimJob& job, Time now) override;
  /// Re-keys the queue table across an engine compaction (also drops
  /// finished coflows' leftover entries, keeping it O(active) in the
  /// open-horizon daemon).
  void on_compact(const CompactionRemap& remap) override;
  void assign(Time now, const std::vector<SimFlow*>& active) override;
  /// Checkpoint hooks (DESIGN.md §12): the monotone queue marks. The table
  /// stays unordered (assign() only looks keys up, never iterates it) and
  /// is serialized in sorted-key order so the bytes are a pure function of
  /// logical state.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  ExpThresholds thresholds_;
  /// Demotion is monotone: remember the deepest queue reached.
  std::unordered_map<CoflowId, int> queue_of_;
  /// assign() scratch: seen_[coflow] == epoch_ once decided in this call.
  std::vector<std::uint64_t> seen_;
  std::uint64_t epoch_ = 0;
};

}  // namespace gurita
