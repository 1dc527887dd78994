// SPQ → WRR starvation mitigation (§IV.B "Starvation Mitigation").
//
// Pure strict-priority queuing denies all bandwidth to low-priority traffic
// whenever higher queues are backlogged. The paper emulates SPQ with
// Weighted Round Robin: compute the average waiting time W_i each queue
// would suffer under SPQ (the classic non-preemptive priority-queue
// formula), then give queue i a WRR weight that shrinks with W_i, so lower
// priority queues transmit at a much lower — but non-zero — rate.
//
//   σ_i = Σ_{j<=i} ρ_j                 (cumulative load through queue i)
//   W_i ∝ 1 / ((1 − σ_{i−1})(1 − σ_i)) (relative SPQ waiting time)
//   w_i = (1/W_i) / Σ_j (1/W_j)        (WRR weight; Σ w_i = 1)
//
// Inverting W keeps the SPQ ordering (short wait ⇒ large share) while
// guaranteeing progress everywhere. Loads ρ_i are measured from the bytes
// each queue admitted over a sliding window, normalized to a configurable
// total utilization so the formula stays inside its stability region.
#pragma once

#include <vector>

#include "flowsim/state.h"

namespace gurita {

/// Relative SPQ waiting times W_i for per-queue loads `rho` (each >= 0,
/// cumulative sum < 1). W_0 is normalized to 1.
[[nodiscard]] std::vector<double> spq_waiting_times(
    const std::vector<double>& rho);

/// WRR weights w_i ∝ 1/W_i, normalized to sum to 1.
///
/// `min_queue_ratio` (>= 1) additionally enforces w_{i+1} <= w_i /
/// min_queue_ratio before normalizing. The waiting-time model alone gives
/// only weak separation between adjacent queues when per-queue loads are
/// small (W_{i+1}/W_i -> 1 as ρ -> 0), which would let low-priority bulk
/// traffic take a large share — the opposite of the SPQ behaviour being
/// emulated. The floor restores strict-priority-like preemption while the
/// waiting-time model still sets the shape under load.
[[nodiscard]] std::vector<double> wrr_weights(
    const std::vector<double>& waiting_times, double min_queue_ratio = 1.0);

/// Convenience: normalizes raw per-queue demand (e.g. bytes admitted per
/// queue) to loads summing to `total_utilization` (< 1), then returns the
/// WRR weights. Queues with zero demand get zero load but still a finite
/// weight. `demand` must be non-empty with no negative entries.
[[nodiscard]] std::vector<double> wrr_weights_from_demand(
    const std::vector<double>& demand, double total_utilization = 0.9,
    double min_queue_ratio = 1.0);

/// A coflow, its queue and its active flows (the WRR demand unit); the
/// tier and weight are enforce_queues' output.
struct QueuedCoflow {
  CoflowId coflow;
  int queue = 0;
  int flows = 0;
  Tier tier = 0;
  double weight = 1.0;
};

/// The WRR emulation's load normalization and adjacent-queue weight
/// floor (wrr_weights_from_demand's two parameters) in enforce_queues.
inline constexpr double kWrrTotalUtilization = 0.97;
inline constexpr double kWrrMinQueueRatio = 16.0;

/// Maps a queue table onto priorities. SPQ: queue q is tier q, weight 1.
/// WRR emulation: all in tier 0, and queue q's weight W_q (from its share
/// n_q of the active flows, kWrrTotalUtilization, kWrrMinQueueRatio)
/// splits evenly, max(W_q / n_q, 1e-9) per coflow. Returns W (empty under
/// SPQ). WRR rows need flows > 0.
std::vector<double> enforce_queues(std::vector<QueuedCoflow>& table,
                                   int queues, bool wrr);

}  // namespace gurita
