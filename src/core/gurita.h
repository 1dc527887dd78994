// Gurita — the paper's contribution (§IV): decentralized Least-Blocking-
// Effect-First (LBEF) scheduling of multi-stage job coflows.
//
// Mechanics implemented here, mapped to the paper:
//
//  * Per-stage blocking effect. Every δ seconds (the HR update interval)
//    each job's head receiver aggregates receiver-local observations
//    (bytes received per flow, open connections) and estimates
//    Ψ̈_c = ω̈·ε̈·ℓ̈_max·n̈ per active coflow (eq. 3), discounted for
//    AVA-estimated critical-path membership (rule 4). Per-stage sums
//    Ψ̈_J(k) map onto priority queues through exponentially spaced
//    thresholds (LBEF, Algorithm 1).
//
//  * Priority dynamics. A newly released coflow starts at the highest
//    priority (too small to wait for an HR decision); HR updates can only
//    *demote* a running coflow's flows — promotions apply to subsequently
//    released flows only, which avoids TCP reordering.
//
//  * Enforcement. Strict priority queuing by default maps queues onto
//    allocator tiers; with starvation mitigation enabled (the paper's
//    recommended mode) queues are emulated with WRR weights derived from
//    the SPQ waiting-time model, so low-priority traffic keeps a trickle.
//
// Everything the scheduler reads between ticks comes from the HR caches —
// never from the engine's instantaneous state — which is what makes this a
// faithful model of a controller-less, receiver-driven scheme.
#pragma once

#include <map>

#include "common/units.h"
#include "core/adaptive_thresholds.h"
#include "core/ava.h"
#include "core/head_receiver.h"
#include "flowsim/scheduler.h"
#include "sched/thresholds.h"

namespace gurita {

class GuritaScheduler final : public Scheduler {
 public:
  struct Config {
    int queues = 4;                 ///< priority queues (paper evaluates 4)
    /// First Ψ demotion threshold. Ψ is (bytes × width)-scaled; the default
    /// puts a 10 MB-widest, 10-wide, stage-1 coflow near the first boundary.
    double first_threshold = 2e7;
    double multiplier = 16.0;       ///< exponential threshold spacing
    Time delta = 8 * kMillisecond;  ///< HR update interval δ
    double gamma = 0.25;            ///< ε skew constant, in (0,1)
    double beta = 0.5;              ///< critical-path discount, in (0,1]
    bool use_critical_path = true;  ///< rule 4 on/off (ablation)
    bool starvation_mitigation = true;  ///< WRR emulation vs pure SPQ
    bool paper_literal_epsilon = false; ///< ε's ambiguous d>=1 branch
    /// Learn demotion thresholds online from the observed Ψ distribution
    /// (quantile placement; adaptive_thresholds.h) instead of the fixed
    /// exponential ladder — the paper's stated future-work direction.
    bool adaptive_thresholds = false;
  };

  GuritaScheduler() : GuritaScheduler(Config{}) {}
  explicit GuritaScheduler(const Config& config);

  [[nodiscard]] std::string name() const override { return "gurita"; }

  [[nodiscard]] Time tick_interval() const override { return config_.delta; }
  bool on_tick(Time now) override;
  void on_job_arrival(const SimJob& job, Time now) override;
  void on_coflow_release(const SimCoflow& coflow, Time now) override;
  void on_coflow_finish(const SimCoflow& coflow, Time now) override;
  void on_job_finish(const SimJob& job, Time now) override;
  /// Graceful degradation (DESIGN.md §11): kSchedulerStateLoss drops every
  /// HR cache, the learned AVA history and adaptive thresholds, then
  /// re-admits all live coflows at the highest queue — they re-earn their
  /// demotions from fresh observations with stale Ψ̈, exactly like a
  /// restarted head receiver. Host/link faults need no handling here: the
  /// HR caches re-observe the surviving flows at the next δ round.
  void on_fault(const FaultEvent& event, Time now) override;
  /// Drops the failed job's HR and its coflows' queue entries (the job
  /// never reaches on_job_finish).
  void on_job_fail(const SimJob& job, Time now) override;
  /// Re-keys the HR caches (including each HR's per-coflow observation
  /// cache) and the coflow queue table across an engine compaction. The AVA
  /// mean and adaptive-threshold reservoir are population statistics, not
  /// id-keyed, and survive untouched.
  void on_compact(const CompactionRemap& remap) override;
  void assign(Time now, const std::vector<SimFlow*>& active) override;
  /// Checkpoint hooks (DESIGN.md §12): HR caches, queue table, AVA history,
  /// adaptive-threshold reservoir and introspection counters all travel
  /// with the snapshot — a restored Gurita is indistinguishable from one
  /// that ran the whole horizon.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

  /// Exposed for tests: queue currently assigned to a coflow (0 if none).
  [[nodiscard]] int coflow_queue(CoflowId id) const;

  /// Introspection counters for analysis and tests.
  struct Stats {
    std::uint64_t hr_updates = 0;       ///< per-job HR refresh rounds
    std::uint64_t demotions = 0;        ///< HR-decided queue demotions
    std::uint64_t self_demote_checks = 0;  ///< receiver-local evaluations
    std::uint64_t self_demotions = 0;   ///< receiver-local threshold hits
    std::uint64_t critical_path_hits = 0;  ///< coflows AVA flagged critical
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Config config_;
  ExpThresholds thresholds_;
  AdaptiveThresholds adaptive_;
  AvaEstimator ava_;
  Stats stats_;

  /// Demotion level for a Ψ value under the configured threshold policy.
  [[nodiscard]] int psi_level(double psi) const;
  /// Feeds a Ψ observation to the adaptive learner (no-op when fixed).
  void observe_psi(double psi);
  /// Ordered maps, not hash maps: on_tick and assign iterate these, and
  /// both trace-record emission order and Ψ̈ floating-point fold order must
  /// be a pure function of logical state for byte-identical restore —
  /// a rehashed unordered_map's bucket order is not reconstructible.
  std::map<JobId, HeadReceiver> head_receivers_;
  /// Queue assigned to each released coflow; demote-only while it runs.
  std::map<CoflowId, int> coflow_queue_;

  /// Recomputes Ψ̈ and stage queues for one job from its HR cache.
  /// Returns true if any coflow's queue changed.
  bool decide_priorities(HeadReceiver& hr, Time now);

  /// Receiver-local self-demotion: "newly-arriving flows ... transmit at
  /// [the highest] priority until a threshold is exceeded or an update is
  /// received from HR." A receiver sees its own byte counts continuously,
  /// so this check needs no δ coordination; only the job-level stage sums
  /// (decide_priorities) wait for the HR round. `queue` is the coflow's
  /// entry in coflow_queue_ (demote-only, updated in place).
  void self_demote(CoflowId cid, int& queue, Time now);
};

}  // namespace gurita
