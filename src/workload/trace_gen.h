// Synthetic Facebook-like multi-stage job trace generator.
//
// The paper replays coflows from the Facebook 150-rack/3000-machine
// production trace [Varys SIGCOMM'14], stitched into TPC-DS / FB-Tao DAG
// shapes. That trace is not redistributable here, so we synthesize one with
// the same qualitative properties (substitution #1, DESIGN.md):
//
//  * Job sizes are heavy-tailed across Table 1's seven categories — most
//    jobs are small, most *bytes* belong to a few huge jobs. A category is
//    drawn from a skewed mixture, then the total is log-uniform inside it,
//    guaranteeing every evaluation category is populated.
//  * Coflow widths span one to hundreds of flows (capped by the fabric),
//    drawn from a bounded Pareto like the published width distribution.
//  * Per-coflow byte shares within a job are log-normally skewed, producing
//    the paper's "on-and-off" jobs that transmit much in some stages and
//    almost nothing in others.
//  * Flow sizes within a coflow are log-normally skewed around the mean so
//    ℓ_max / ℓ_avg varies (the ε dimension).
//  * Senders/receivers are uniform over hosts; each coflow has a smaller
//    receiver set than sender set (many-to-few shuffles).
//
// Arrivals: Poisson for the trace-driven scenario; for the bursty scenario
// jobs arrive in back-to-back batches 2 µs apart separated by long idle
// gaps, "when jobs arrive within small time intervals, a common occurrence
// in datacenters [17]" (§V).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "coflow/job.h"
#include "workload/structures.h"

namespace gurita {

enum class ArrivalPattern {
  kPoisson,  ///< exponential inter-arrival times
  kBursty,   ///< batches at 2 µs spacing with idle gaps between batches
};

[[nodiscard]] const char* to_string(ArrivalPattern pattern);

struct TraceConfig {
  int num_jobs = 200;
  int num_hosts = 128;           ///< endpoints drawn from [0, num_hosts)
  StructureKind structure = StructureKind::kMixed;
  ArrivalPattern arrivals = ArrivalPattern::kPoisson;
  Time mean_interarrival = 50 * kMillisecond;  ///< Poisson mean
  int burst_size = 50;                         ///< jobs per burst
  Time burst_spacing = 2 * kMicrosecond;       ///< intra-burst gap (paper: 2µs)
  Time burst_gap = 5.0;                        ///< idle time between bursts
  /// Mixture weight of each Table-1 size category (normalized internally).
  /// Skewed small like the production trace: most jobs are small, most
  /// bytes belong to the few giants.
  std::vector<double> category_weights = {0.36, 0.26, 0.18, 0.08,
                                          0.07, 0.03, 0.02};
  int max_width = 64;            ///< cap on flows per coflow
  double width_pareto_alpha = 1.2;
  double flow_skew_sigma = 1.0;  ///< lognormal σ of flow sizes in a coflow
  double stage_skew_sigma = 1.6; ///< lognormal σ of per-coflow byte shares
  std::uint64_t seed = 42;
};

/// Generates one validated job body (DAG, coflows, flows) from `rng`,
/// consuming exactly the draws generate_trace makes per job.
/// arrival_time is left 0: batch generation stamps it from a pre-drawn
/// arrival vector, the open-loop generator (open_loop.h) from its arrival
/// process cursor.
[[nodiscard]] JobSpec generate_job(const TraceConfig& config, Rng& rng);

/// Generates `config.num_jobs` validated JobSpecs, sorted by arrival time.
[[nodiscard]] std::vector<JobSpec> generate_trace(const TraceConfig& config);

}  // namespace gurita
