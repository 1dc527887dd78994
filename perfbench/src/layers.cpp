#include "layers.h"

namespace perfbench {

namespace {

double phase_s(const gurita::obs::PhaseProfile& profile,
               gurita::obs::Phase phase) {
  return static_cast<double>(
             profile.phases[static_cast<std::size_t>(phase)].ns) *
         1e-9;
}

}  // namespace

void EngineLayers::add(const EngineLayers& other) {
  alloc_converge_s += other.alloc_converge_s;
  alloc_frontier_s += other.alloc_frontier_s;
  calendar_drain_s += other.calendar_drain_s;
  dag_release_s += other.dag_release_s;
  allocations += other.allocations;
  flows_solved += other.flows_solved;
  components_solved += other.components_solved;
  dirty_links += other.dirty_links;
}

EngineLayers read_engine_layers(const gurita::obs::PhaseProfile& profile,
                                const gurita::AllocStats& alloc) {
  using gurita::obs::Phase;
  EngineLayers out;
  out.alloc_converge_s = phase_s(profile, Phase::kAllocConverge);
  out.alloc_frontier_s = phase_s(profile, Phase::kAllocFrontier);
  out.calendar_drain_s = phase_s(profile, Phase::kCalendarDrain);
  out.dag_release_s = phase_s(profile, Phase::kDagRelease);
  out.allocations = static_cast<double>(alloc.allocations);
  out.flows_solved = static_cast<double>(alloc.flows_solved);
  out.components_solved = static_cast<double>(alloc.components_solved);
  out.dirty_links = static_cast<double>(alloc.dirty_links);
  return out;
}

}  // namespace perfbench
