// Adaptive Ψ demotion thresholds — the paper's future-work direction made
// concrete: "As part of our future work, we will extend the study in [35,
// Poupart et al., online flow size prediction] on using machine learning to
// determine thresholds" (§IV.B).
//
// Fixed exponential thresholds must be tuned to the workload's Ψ scale; a
// mis-scaled set collapses every coflow into one queue. This learner keeps
// a reservoir of recently observed per-stage blocking effects and places
// the Q-1 demotion boundaries at evenly spaced quantiles of that empirical
// distribution, so the queues stay balanced as the workload drifts — a
// simple, online, distribution-free estimator (the same role the cited
// flow-size predictor plays for TBS thresholds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "snapshot/codec.h"

namespace gurita {

class AdaptiveThresholds {
 public:
  /// `queues` >= 1; boundaries are recomputed every `refresh_every`
  /// observations from a reservoir of `capacity` recent samples.
  AdaptiveThresholds(int queues, std::size_t capacity = 1024,
                     std::size_t refresh_every = 64);

  [[nodiscard]] int queues() const { return queues_; }

  /// Feeds one observed Ψ value (>= 0).
  void observe(double psi);

  /// Queue (0 = highest priority) for signal `x` >= 0. Before enough
  /// observations arrive (fewer than `queues`), everything maps to 0 —
  /// matching Gurita's start-at-highest-priority rule.
  [[nodiscard]] int level(double x) const;

  [[nodiscard]] std::size_t observations() const { return total_; }
  /// Current boundaries (size queues-1; empty until first refresh).
  [[nodiscard]] const std::vector<double>& boundaries() const {
    return boundaries_;
  }

  /// Checkpoint hooks (DESIGN.md §12). Configuration (queues, capacity,
  /// refresh cadence) is NOT serialized — the restoring side reconstructs
  /// the learner from the same Config; only learned state travels. The
  /// reservoir ring (including slot positions) must round-trip exactly:
  /// future refreshes sort a copy of it, so element order matters.
  void save_state(snapshot::Writer& w) const {
    w.u64(static_cast<std::uint64_t>(total_));
    w.u64(static_cast<std::uint64_t>(since_refresh_));
    w.u64(static_cast<std::uint64_t>(next_slot_));
    w.u64(reservoir_.size());
    for (double v : reservoir_) w.f64(v);
    w.u64(boundaries_.size());
    for (double v : boundaries_) w.f64(v);
  }
  /// Restore rejects a reservoir larger than its capacity, a ring slot
  /// outside it (observe() writes there) and more than queues − 1
  /// boundaries.
  void load_state(snapshot::Reader& r) {
    total_ = static_cast<std::size_t>(r.u64());
    since_refresh_ = static_cast<std::size_t>(r.u64());
    const std::uint64_t next_slot = r.u64();
    corrupt_if(next_slot >= capacity_, "reservoir slot out of range");
    next_slot_ = static_cast<std::size_t>(next_slot);
    const std::uint64_t n_samples = r.count(8);
    corrupt_if(n_samples > capacity_, "reservoir larger than its capacity");
    reservoir_.resize(static_cast<std::size_t>(n_samples));
    for (double& v : reservoir_) v = r.f64();
    const std::uint64_t n_boundaries = r.count(8);
    corrupt_if(n_boundaries >= static_cast<std::uint64_t>(queues_),
               "more boundaries than queues - 1");
    boundaries_.resize(static_cast<std::size_t>(n_boundaries));
    for (double& v : boundaries_) v = r.f64();
  }

 private:
  int queues_;
  std::size_t capacity_;
  std::size_t refresh_every_;
  std::size_t total_ = 0;
  std::size_t since_refresh_ = 0;
  std::vector<double> reservoir_;  ///< ring buffer of recent Ψ samples
  std::size_t next_slot_ = 0;
  std::vector<double> boundaries_;

  void refresh();
  static void corrupt_if(bool bad, const char* what) {
    if (bad)
      throw snapshot::SnapshotError(
          std::string("corrupt snapshot: adaptive thresholds ") + what);
  }
};

}  // namespace gurita
