// Open-loop job source for the service daemon (DESIGN.md §15).
//
// Batch generation (trace_gen.h) draws every job up front from one serial
// RNG; an open-horizon daemon needs the opposite: jobs materialized one at
// a time, forever, with a cursor small enough to ride a checkpoint. Each
// job body is drawn from an RNG derived from (seed, index), so job i is a
// pure function of the config — the stream can be resumed at any index
// without replaying the prefix, and two daemons with the same config
// produce byte-identical job sequences regardless of when they admit them.
//
// Arrivals target a load factor: the generator calibrates E[job bytes]
// from 64 probe jobs on a disjoint stream and spaces arrivals so that
// offered load = `load` × `service_rate`. Poisson draws each inter-arrival
// gap from a per-index stream; bursty replays the paper's batched pattern
// (bursts of `shape.burst_size` back-to-back arrivals at
// `shape.burst_spacing`, idle gaps sized to keep the same average rate).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "coflow/job.h"
#include "workload/trace_gen.h"

namespace gurita {

class OpenLoopGenerator {
 public:
  struct Config {
    /// Job-shape parameters, and the burst size and spacing of bursty
    /// arrivals. num_jobs, arrivals and mean_interarrival of the shape are
    /// ignored: the horizon is open and arrivals come from this class.
    TraceConfig shape;
    ArrivalPattern arrivals = ArrivalPattern::kPoisson;
    /// Target load factor: offered bytes/s as a fraction of service_rate.
    double load = 0.7;
    /// Aggregate drain capacity the load factor is measured against
    /// (host count × access-link rate is the natural choice).
    Rate service_rate = 128 * gbps(10.0);
    /// Overrides the load-derived mean inter-arrival when > 0.
    Time mean_interarrival = 0;
  };

  /// Resume cursor — everything needed to continue the stream exactly.
  /// Rides the daemon checkpoint (snapshot v3, kServiceState).
  struct Cursor {
    std::uint64_t next_index = 0;
    Time clock = 0;  ///< arrival time of job `next_index`
  };

  explicit OpenLoopGenerator(const Config& config);

  /// Generates the next job with its arrival stamped; advances the cursor.
  [[nodiscard]] JobSpec next();

  [[nodiscard]] const Cursor& cursor() const { return cursor_; }
  void restore_cursor(const Cursor& c) { cursor_ = c; }

  /// The calibrated (or overridden) mean inter-arrival time.
  [[nodiscard]] Time mean_interarrival() const { return mean_interarrival_; }

 private:
  Config config_;
  Time mean_interarrival_ = 0;
  Cursor cursor_;
};

}  // namespace gurita
