// Deterministic interval sampler: periodic run-health samples on a uniform
// sim-time grid.
//
// The sampler owns a boundary cursor k and emits one kSample and one
// kMemSample record for every grid point k*every the simulation clock
// crosses, stamped at the grid time. Boundaries are
// computed by multiplication, never by accumulation, so a run restored from
// a checkpoint lands on bit-identical grid times. The engine polls the
// sampler after every processed event (flowsim/simulator.cpp), which is the
// same set of poll points an uninterrupted run passes through — together
// with the serialized cursor (snapshot/snapshot.cpp) this makes the sample
// series byte-identical across a checkpoint/restore split and at any
// worker count (samples ride the trace buffer through the same replicate-
// order pooling as every other record).
//
// Determinism contract (DESIGN.md §14): every field of kSample/kMemSample
// is a pure function of serialized simulation state — event counters,
// container *sizes* (never capacities), live-entity counts. The sampler
// reads no clock; wall time per phase comes from the phase profiler
// (obs/profiler.h), never from a trace record.
#pragma once

#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/units.h"
#include "obs/trace.h"

namespace gurita::obs {

class IntervalSampler {
 public:
  struct Config {
    /// Sim-time sampling interval; must be > 0.
    double every = 0;
  };

  /// Deterministic run-health fields, gathered by the engine at a poll
  /// point. Everything here must be derivable from checkpointed state.
  struct SimSample {
    std::uint64_t events = 0;
    std::uint64_t flow_touches = 0;
    std::uint64_t rate_recomputations = 0;
    std::uint64_t active_flows = 0;
    std::uint64_t active_coflows = 0;
    std::uint64_t active_jobs = 0;
    std::uint64_t calendar_entries = 0;
    std::uint64_t trace_records = 0;
  };

  /// Logical live bytes per subsystem (element counts x element size, never
  /// reserved capacity — capacity depends on growth history (restore,
  /// admit, compact), which is outside the determinism contract).
  struct MemSample {
    std::uint64_t state_bytes = 0;       ///< flow/coflow/job/aggregate stores
    std::uint64_t calendar_bytes = 0;    ///< completion calendar entries
    std::uint64_t retry_bytes = 0;       ///< parked flows + retry calendar
    std::uint64_t trace_bytes = 0;       ///< trace recorder buffer
    std::uint64_t active_set_bytes = 0;  ///< active set + pos/gen tables
    [[nodiscard]] std::uint64_t total() const {
      return state_bytes + calendar_bytes + retry_bytes + trace_bytes +
             active_set_bytes;
    }
  };

  explicit IntervalSampler(Config config) : config_(config) {
    GURITA_CHECK_MSG(config_.every > 0, "sampler interval must be positive");
  }

  [[nodiscard]] const Config& config() const { return config_; }

  /// Next grid time not yet sampled. The engine polls while
  /// next_due() <= now.
  [[nodiscard]] Time next_due() const {
    return static_cast<Time>(k_) * config_.every;
  }

  /// Emits the records for the next_due() boundary into `sink` and advances
  /// the cursor. `sim` / `mem` describe the state at the poll point (the
  /// first event boundary at or past the grid time).
  void emit(TraceRecorder& sink, const SimSample& sim, const MemSample& mem);

  // --- checkpoint plumbing (snapshot/snapshot.cpp) ---
  /// Serialized cursor: boundary index and the event count at the previous
  /// boundary (for the events/sec delta).
  struct Cursor {
    std::uint64_t k = 1;
    std::uint64_t last_events = 0;
  };
  [[nodiscard]] Cursor cursor() const { return Cursor{k_, last_events_}; }
  void restore_cursor(const Cursor& c) {
    k_ = c.k;
    last_events_ = c.last_events;
  }

 private:
  Config config_;
  /// Next boundary index; the grid starts at 1*every (everything is zero
  /// at t=0, so the origin sample carries no information).
  std::uint64_t k_ = 1;
  /// Event count at the previously emitted boundary.
  std::uint64_t last_events_ = 0;
};

}  // namespace gurita::obs
