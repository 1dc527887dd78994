#include "workload/open_loop.h"

#include <algorithm>

#include "common/check.h"

namespace gurita {

namespace {

// Derivation streams. Disjoint constants keep the job bodies, the arrival
// gaps and the calibration probes statistically independent.
constexpr std::uint64_t kJobStream = 1;
constexpr std::uint64_t kArrivalStream = 2;
constexpr std::uint64_t kCalibrationStream = 3;

/// Probe jobs drawn on kCalibrationStream to estimate E[job bytes] for the
/// load → inter-arrival calibration.
constexpr int kCalibrationJobs = 64;

/// Seed for element `index` of derivation stream `stream`: two SplitMix64
/// rounds over (seed, stream, index) so neighbouring indices land far apart
/// in state space.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  Rng outer(seed + 0x9e3779b97f4a7c15ULL * stream);
  Rng inner(outer.next_u64() + 0x94d049bb133111ebULL * index);
  return inner.next_u64();
}

}  // namespace

OpenLoopGenerator::OpenLoopGenerator(const Config& config) : config_(config) {
  GURITA_CHECK_MSG(config.load > 0, "load factor must be positive");
  GURITA_CHECK_MSG(config.service_rate > 0, "service rate must be positive");
  GURITA_CHECK_MSG(config.shape.burst_size >= 1,
                   "burst size must be positive");

  // Estimate E[job bytes] on the probe stream. Probe indices never collide
  // with served job indices (disjoint stream constant), so calibration does
  // not perturb the served sequence.
  double sum = 0;
  for (int i = 0; i < kCalibrationJobs; ++i) {
    Rng rng(derive_seed(config.shape.seed, kCalibrationStream,
                        static_cast<std::uint64_t>(i)));
    sum += generate_job(config.shape, rng).total_bytes();
  }
  const Bytes mean_bytes = sum / kCalibrationJobs;

  mean_interarrival_ =
      config.mean_interarrival > 0
          ? config.mean_interarrival
          : mean_bytes / (config.load * config.service_rate);
}

JobSpec OpenLoopGenerator::next() {
  Rng body_rng(
      derive_seed(config_.shape.seed, kJobStream, cursor_.next_index));
  JobSpec job = generate_job(config_.shape, body_rng);
  job.arrival_time = cursor_.clock;

  if (config_.arrivals == ArrivalPattern::kPoisson) {
    Rng gap_rng(
        derive_seed(config_.shape.seed, kArrivalStream, cursor_.next_index));
    cursor_.clock += gap_rng.exponential(mean_interarrival_);
  } else {
    // Bursty with the same average rate: a burst cycle spans
    // burst_size × mean_interarrival, of which the back-to-back prefix
    // uses (burst_size-1) × burst_spacing and the idle gap the rest.
    const int burst_size = config_.shape.burst_size;
    const Time spacing = config_.shape.burst_spacing;
    const std::uint64_t pos =
        cursor_.next_index % static_cast<std::uint64_t>(burst_size);
    if (pos + 1 < static_cast<std::uint64_t>(burst_size)) {
      cursor_.clock += spacing;
    } else {
      const Time cycle = burst_size * mean_interarrival_;
      const Time prefix = (burst_size - 1) * spacing;
      cursor_.clock += std::max(spacing, cycle - prefix);
    }
  }
  ++cursor_.next_index;
  return job;
}

}  // namespace gurita
