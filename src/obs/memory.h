// Per-subsystem memory accounting for the simulator's large containers.
//
// Unlike the sampler's kMemSample records — which report *logical* live
// bytes (element counts x element size) so they stay deterministic across
// checkpoint/restore and compaction — the accountant tracks the *reserved*
// footprint (vector capacities), i.e. what the process actually holds,
// including the allocator's membership/scratch arrays. Reserved capacity
// depends on growth history (restore, admit, compact), so the accountant
// is diagnostics-only: it is never serialized, never fingerprinted, and
// only surfaces in exports behind --diagnostics (DESIGN.md §14), where
// export_traces renders its peaks in the summary's "diagnostics.memory"
// object. The engine feeds it at sample boundaries and at collect(); peaks
// merge by max across runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace gurita::obs {

class MemoryAccountant {
 public:
  enum class Subsystem : int {
    kState = 0,       ///< flow/coflow/job stores, aggregates, flow paths
    kCalendar = 1,    ///< completion calendar heap array
    kAllocator = 2,   ///< membership lists, flow marks, scratch (allocator.h)
    kTrace = 3,       ///< trace recorder buffer
    kActiveSet = 4,   ///< active set + per-flow position tables
    kFaultRuntime = 5 ///< parked/retry/fault-plan runtime vectors
  };
  static constexpr int kNumSubsystems = 6;

  [[nodiscard]] static const char* subsystem_name(Subsystem s);

  /// Records the current reserved bytes of `s`, folding the per-subsystem
  /// peak and the peak of the total across all subsystems.
  void observe(Subsystem s, std::uint64_t bytes) {
    current_[static_cast<std::size_t>(s)] = bytes;
    auto& peak = peak_[static_cast<std::size_t>(s)];
    if (bytes > peak) peak = bytes;
    std::uint64_t total = 0;
    for (const std::uint64_t c : current_) total += c;
    if (total > peak_total_) peak_total_ = total;
  }

  [[nodiscard]] std::uint64_t current(Subsystem s) const {
    return current_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t peak(Subsystem s) const {
    return peak_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t peak_total() const { return peak_total_; }

  /// Max-folds another accountant's peaks in (current values are run-local
  /// and not merged) — the pooling shape ComparisonResult::absorb uses.
  void merge(const MemoryAccountant& other) {
    for (std::size_t i = 0; i < peak_.size(); ++i)
      if (other.peak_[i] > peak_[i]) peak_[i] = other.peak_[i];
    if (other.peak_total_ > peak_total_) peak_total_ = other.peak_total_;
  }

 private:
  std::array<std::uint64_t, kNumSubsystems> current_{};
  std::array<std::uint64_t, kNumSubsystems> peak_{};
  std::uint64_t peak_total_ = 0;
};

}  // namespace gurita::obs
