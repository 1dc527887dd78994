// The one adapter between the engine's diagnostic structs (PhaseProfile,
// AllocStats) and the benchmark's per-layer metrics. Nothing else in the
// benchmark reads their fields, so renaming or deleting one (for example
// the allocator's dirty-link frontier) changes this file only.
#pragma once

#include "flowsim/allocator.h"
#include "obs/profiler.h"

namespace perfbench {

/// flowsim sub-phase times and allocator work of one or more runs.
struct EngineLayers {
  double alloc_converge_s = 0;
  double alloc_frontier_s = 0;
  double calendar_drain_s = 0;
  double dag_release_s = 0;
  double allocations = 0;
  double flows_solved = 0;
  double components_solved = 0;
  double dirty_links = 0;

  void add(const EngineLayers& other);
};

[[nodiscard]] EngineLayers read_engine_layers(
    const gurita::obs::PhaseProfile& profile, const gurita::AllocStats& alloc);

}  // namespace perfbench
