// Engine phase profiler.
//
// Scoped RAII timers over the simulator's per-event phases — scheduler
// assignment, allocator recompute, calendar drain, completions, DAG
// releases, arrivals, coordination ticks — plus the run's setup and result
// assembly. Attribution is *exclusive*: entering a nested scope (e.g. a DAG
// release fired from inside a completion) pauses the enclosing phase, so
// phase times never double-count and their sum is bounded by the measured
// run wall time. The uncovered remainder is the event loop's glue
// (min-of-next-event selection, counter bumps), which is why a profiled run
// reports phase coverage of ≥ 90% of engine wall time.
//
// Cost contract: a null profiler pointer makes every ScopedPhase a no-op
// (two inlined null checks, no clock reads). An attached profiler costs two
// steady_clock reads per scope. Profiling never touches simulation state,
// so results are bit-identical with and without it.
//
// PhaseProfile is the mergeable POD snapshot: per-run profiles sum across a
// run matrix (SimResults carries one; ComparisonResult::absorb merges), so
// BENCH_* reports carry a phase breakdown pooled over all runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gurita::obs {

/// Engine phases, in report order.
enum class Phase : int {
  kSetup = 0,           ///< run() preamble: reserve, arrival sort
  kSchedulerAssign = 1, ///< Scheduler::assign and its priority writes
  kAllocator = 2,       ///< RateAllocator::allocate + settle/re-key
  kCalendarDrain = 3,   ///< stale-entry pops, next-event pick, due pops
  kCompletion = 4,      ///< finish_flow / finish_coflow bookkeeping
  kDagRelease = 5,      ///< release_coflow: flow creation, routing, hooks
  kArrival = 6,         ///< job arrival handling (minus nested releases)
  kTick = 7,            ///< Scheduler::on_tick coordination rounds
  kResults = 8,         ///< end-of-run result assembly
  kFault = 9,           ///< fault application, aborts, retries (fault/)
  kAllocFrontier = 10,  ///< allocator walk: closure + component discovery
  kAllocConverge = 11,  ///< per-component sort + kernel, changed list
  kSampling = 12,       ///< interval sampler polls (obs/sampler.h)
};

inline constexpr int kNumPhases = 13;

[[nodiscard]] const char* phase_name(Phase phase);

/// One exclusive-attribution slice of wall time spent in a phase, captured
/// only when span recording is enabled (obs/chrome_trace.h renders these as
/// Perfetto "complete" events). Times are ns since the profiler's first
/// begin_run(). Wall-clock telemetry: outside the determinism contract,
/// never serialized into snapshots or fingerprinted exports.
struct PhaseSpan {
  std::int32_t phase = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Mergeable snapshot of one or more profiled runs.
struct PhaseProfile {
  struct Entry {
    std::uint64_t ns = 0;     ///< exclusive time in the phase
    std::uint64_t count = 0;  ///< scope entries
  };
  std::array<Entry, kNumPhases> phases{};
  std::uint64_t run_wall_ns = 0;  ///< wall time between begin_run/end_run
  std::uint64_t runs = 0;         ///< completed runs folded in

  /// Sums another profile in (phase times, counts, wall, run count).
  void merge(const PhaseProfile& other);

  /// Total time attributed to any phase.
  [[nodiscard]] std::uint64_t tracked_ns() const;
  /// tracked_ns / run_wall_ns (0 when nothing was measured).
  [[nodiscard]] double coverage() const;

  /// Fixed-width report: one row per phase with ms, % of wall and entry
  /// count, plus the wall/coverage footer BENCH reports embed.
  [[nodiscard]] std::string to_table() const;
};

/// Accumulates exclusive per-phase time for one engine run at a time.
/// Not thread-safe; each run owns its profiler (the parallel runner gives
/// every shard its own and merges snapshots in slot order).
class PhaseProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Marks the start of a run; phase scopes must nest within
  /// begin_run/end_run.
  void begin_run() {
    run_start_ = Clock::now();
    mark_ = run_start_;
    current_ = -1;
    ++profile_.runs;
    if (!have_epoch_) {
      epoch_ = run_start_;
      have_epoch_ = true;
    }
  }

  /// Marks the end of a run, folding its wall time into the snapshot.
  void end_run() {
    const Clock::time_point now = Clock::now();
    accrue(now);
    current_ = -1;
    profile_.run_wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - run_start_)
            .count());
  }

  /// Switches attribution to `phase`; returns the previous phase index for
  /// the matching leave(). Prefer ScopedPhase.
  int enter(Phase phase) {
    const Clock::time_point now = Clock::now();
    accrue(now);
    const int prev = current_;
    current_ = static_cast<int>(phase);
    ++profile_.phases[static_cast<std::size_t>(current_)].count;
    return prev;
  }

  /// Restores attribution to `prev` (the value enter() returned).
  void leave(int prev) {
    const Clock::time_point now = Clock::now();
    accrue(now);
    current_ = prev;
  }

  [[nodiscard]] const PhaseProfile& snapshot() const { return profile_; }

  /// Turns on per-slice span capture (for Chrome-trace export); at most
  /// kSpanCap spans are kept, further slices are not recorded.
  /// Disabled capture costs nothing beyond the existing accrue() work.
  void enable_spans() { spans_enabled_ = true; }
  /// Moves the captured spans out (the profiler keeps recording afterwards).
  [[nodiscard]] std::vector<PhaseSpan> take_spans() {
    std::vector<PhaseSpan> out = std::move(spans_);
    spans_.clear();
    return out;
  }

  static constexpr std::size_t kSpanCap = 1 << 20;

 private:
  /// Attributes the time since the last switch point to the current phase.
  void accrue(Clock::time_point now) {
    if (current_ >= 0) {
      profile_.phases[static_cast<std::size_t>(current_)].ns +=
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
                  .count());
      if (spans_enabled_ && now > mark_) record_span(now);
    }
    mark_ = now;
  }

  void record_span(Clock::time_point now) {
    if (spans_.size() >= kSpanCap) return;
    const auto since = [this](Clock::time_point t) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
              .count());
    };
    spans_.push_back(PhaseSpan{current_, since(mark_), since(now)});
  }

  PhaseProfile profile_;
  int current_ = -1;
  Clock::time_point mark_{};
  Clock::time_point run_start_{};
  bool spans_enabled_ = false;
  std::vector<PhaseSpan> spans_;
  /// Zero point of span timestamps: the first begin_run().
  Clock::time_point epoch_{};
  bool have_epoch_ = false;
};

/// RAII phase scope. A null profiler makes construction and destruction
/// no-ops, which is the engine's disabled-path cost contract.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase) : profiler_(profiler) {
    if (profiler_ != nullptr) prev_ = profiler_->enter(phase);
  }
  ~ScopedPhase() {
    if (profiler_ != nullptr) profiler_->leave(prev_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_;
  int prev_ = -1;
};

}  // namespace gurita::obs
