// Baraat — decentralized task-aware scheduling (Dogar et al., SIGCOMM'14),
// "the current state of the art decentralized scheduler" the paper compares
// against: FIFO with Limited Multiplexing (FIFO-LM).
//
// Jobs (tasks) are served in arrival order, identified by a globally
// increasing serial. Pure FIFO would let an elephant head-of-line block
// everyone, so FIFO-LM (a) keeps a base multiplexing level — the first M
// jobs in arrival order share the network — and (b) detects *heavy* jobs
// (accumulated bytes beyond a threshold) which stop occupying a
// multiplexing slot, letting the jobs queued behind them through. We
// realize this by forming service groups over the arrival order: a group
// holds up to `base_multiplexing` light jobs plus every heavy job
// interleaved among them; groups map to allocator tiers in order, and
// flows within a group share fairly.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "flowsim/scheduler.h"

namespace gurita {

class BaraatScheduler final : public Scheduler {
 public:
  struct Config {
    /// A job with more accumulated bytes than this is "heavy" and stops
    /// blocking the jobs queued behind it.
    Bytes heavy_threshold = 100 * kMB;
    /// Light jobs that may share the network concurrently (FIFO-LM's base
    /// multiplexing level).
    int base_multiplexing = 4;
  };

  BaraatScheduler() : BaraatScheduler(Config{}) {}
  explicit BaraatScheduler(const Config& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "baraat"; }

  void on_job_arrival(const SimJob& job, Time now) override;
  /// Drops the finished job from the FIFO view (its serial stays).
  void on_job_finish(const SimJob& job, Time now) override;
  /// kSchedulerStateLoss forgets the arrival-order serials and heavy marks.
  /// Live jobs re-seed serials in ascending job-id order — which matches
  /// arrival order for the workloads we generate, but heavy jobs become
  /// light again and re-earn their kHeavyMark from the (exact) bytes-sent
  /// signal.
  void on_fault(const FaultEvent& event, Time now) override;
  /// Drops the failed job's serial and heavy mark.
  void on_job_fail(const SimJob& job, Time now) override;
  /// Re-keys the serial and heavy tables and the FIFO view across an engine
  /// compaction (also drops finished jobs' leftover entries). Serials keep
  /// their values, so the FIFO order over survivors is unchanged.
  void on_compact(const CompactionRemap& remap) override;
  /// Walks the live jobs in serial order and groups those with an open
  /// flow; O(live jobs and their coflows), never O(active flows).
  void assign(Time now, const std::vector<SimFlow*>& active) override;
  /// Checkpoint hooks (DESIGN.md §12): arrival serials and heavy marks,
  /// serialized in sorted-key order (the tables themselves stay unordered —
  /// assign() reads the FIFO view, which load_state rebuilds from them).
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  /// Removes `id`'s entry from fifo_, if it has one.
  void drop_from_fifo(JobId id);

  Config config_;
  std::unordered_map<JobId, std::uint64_t> serial_;
  std::uint64_t next_serial_ = 0;
  /// (serial, job) of every arrived job that has neither finished nor
  /// failed, ascending: the FIFO order assign() walks.
  std::vector<std::pair<std::uint64_t, JobId>> fifo_;
  /// Jobs already reclassified as heavy; the light→heavy transition fires
  /// exactly one kHeavyMark trace record per job.
  std::unordered_map<JobId, bool> heavy_;
};

}  // namespace gurita
