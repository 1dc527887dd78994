#include "obs/profiler.h"

#include <cstdio>

namespace gurita::obs {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kSchedulerAssign: return "scheduler_assign";
    case Phase::kAllocator: return "allocator";
    case Phase::kCalendarDrain: return "calendar_drain";
    case Phase::kCompletion: return "completion";
    case Phase::kDagRelease: return "dag_release";
    case Phase::kArrival: return "arrival";
    case Phase::kTick: return "tick";
    case Phase::kResults: return "results";
    case Phase::kFault: return "fault";
    case Phase::kAllocFrontier: return "alloc_frontier";
    case Phase::kAllocConverge: return "alloc_converge";
    case Phase::kSampling: return "sampling";
  }
  return "?";
}

void PhaseProfile::merge(const PhaseProfile& other) {
  for (int p = 0; p < kNumPhases; ++p) {
    phases[static_cast<std::size_t>(p)].ns +=
        other.phases[static_cast<std::size_t>(p)].ns;
    phases[static_cast<std::size_t>(p)].count +=
        other.phases[static_cast<std::size_t>(p)].count;
  }
  run_wall_ns += other.run_wall_ns;
  runs += other.runs;
}

std::uint64_t PhaseProfile::tracked_ns() const {
  std::uint64_t total = 0;
  for (const Entry& e : phases) total += e.ns;
  return total;
}

double PhaseProfile::coverage() const {
  return run_wall_ns == 0
             ? 0.0
             : static_cast<double>(tracked_ns()) /
                   static_cast<double>(run_wall_ns);
}

std::string PhaseProfile::to_table() const {
  std::string out =
      "phase              time_ms   % of wall     entries\n";
  char buf[128];
  const double wall_ms = static_cast<double>(run_wall_ns) / 1e6;
  for (int p = 0; p < kNumPhases; ++p) {
    const Entry& e = phases[static_cast<std::size_t>(p)];
    const double ms = static_cast<double>(e.ns) / 1e6;
    const double pct =
        run_wall_ns == 0 ? 0.0
                         : 100.0 * static_cast<double>(e.ns) /
                               static_cast<double>(run_wall_ns);
    std::snprintf(buf, sizeof(buf), "%-16s %9.2f %10.1f%% %11llu\n",
                  phase_name(static_cast<Phase>(p)), ms, pct,
                  static_cast<unsigned long long>(e.count));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "engine wall %.2f ms over %llu run(s); phase coverage %.1f%%\n",
                wall_ms, static_cast<unsigned long long>(runs),
                100.0 * coverage());
  out += buf;
  return out;
}

}  // namespace gurita::obs
