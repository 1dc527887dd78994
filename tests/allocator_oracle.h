// Test oracle: the from-scratch rate allocator. Every call splits the whole
// active set into link-connected components by union-find and re-solves
// each with the shipped kernel (solve_component), keeping no state between
// calls. The engine's RateAllocator (flowsim/allocator.h) re-solves only the
// components its dirty-link frontier reaches and is held byte-identical to
// this (DESIGN.md §13); OracleSimulator (oracle_sim.h) drives it too.
// Test-only: lives in tests/, never linked into the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "flowsim/allocator.h"
#include "flowsim/state.h"
#include "topology/topology.h"

namespace gurita {

/// Weighted max-min within a single tier group, honoring `residual`
/// capacities (indexed by LinkId value). Consumes capacity from `residual`
/// and writes flow rates.
inline void waterfill(const Topology& topo, std::vector<SimFlow*>& group,
                      std::vector<Rate>& residual) {
  GURITA_CHECK_MSG(residual.size() == topo.link_count(),
                   "residual vector must cover every link");
  for (const SimFlow* f : group)
    GURITA_CHECK_MSG(f->tier == group.front()->tier,
                     "waterfill wants one tier group");
  // One tier is one kernel group; waterfill_tier starts it at `residual`
  // and writes the consumed residuals back into it.
  WaterfillScratch scratch;
  waterfill_tier(topo, group.data(), group.size(), residual.data(), scratch);
}

namespace oracle_detail {

inline std::uint32_t uf_find(std::vector<std::uint32_t>& parent,
                             std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

}  // namespace oracle_detail

/// Computes and writes `rate` for every flow in `flows` (all must be
/// active, with non-empty paths). Rates of flows not in `flows` are not
/// touched; the order of `flows` is preserved. `capacities` overrides the
/// links' nominal capacities (indexed by LinkId value; entries may be 0 for
/// a failed link).
///
/// When `changed` is non-null it is cleared and filled (in `flows` order)
/// with the flows whose rate actually moved. Identical inputs produce
/// bit-identical rates, so an event that does not disturb the allocation
/// reports no changes.
///
/// Link-connected components are split out and each is solved
/// independently by the shared kernel, so its bits are — by construction —
/// the ones RateAllocator's partial re-solves produce.
inline void allocate_rates(const Topology& topo,
                           const std::vector<Rate>& capacities,
                           const std::vector<SimFlow*>& flows,
                           std::vector<RateChange>* changed = nullptr,
                           AllocStats* stats = nullptr) {
  GURITA_CHECK_MSG(capacities.size() == topo.link_count(),
                   "capacity vector must cover every link");
  for (Rate c : capacities) GURITA_CHECK_MSG(c >= 0, "negative capacity");

  std::vector<Rate> old_rates;
  if (changed != nullptr) {
    changed->clear();
    old_rates.reserve(flows.size());
    for (const SimFlow* f : flows) old_rates.push_back(f->rate);
  }

  // Stable order: by tier, then by flow id for determinism. Sorting a copy
  // keeps the caller's order intact (the engine hands in its persistent
  // active list); the total order depends only on (tier, id), so the rates
  // produced are independent of the caller's order.
  std::vector<SimFlow*> order(flows);
  std::sort(order.begin(), order.end(), [](const SimFlow* a, const SimFlow* b) {
    if (a->tier != b->tier) return a->tier < b->tier;
    return a->id < b->id;
  });

  // Link-connected components via union-find: flows sharing any link share
  // a component. Bucketing in `order` keeps each component (tier, id)
  // sorted, as solve_component requires.
  using oracle_detail::uf_find;
  const std::uint32_t n = static_cast<std::uint32_t>(order.size());
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> link_first(topo.link_count(), kNone);
  std::uint64_t used_links = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (LinkId l : order[i]->path) {
      std::uint32_t& first = link_first[l.value()];
      if (first == kNone) {
        first = i;
        ++used_links;
      } else {
        const std::uint32_t a = uf_find(parent, i);
        const std::uint32_t b = uf_find(parent, first);
        if (a != b) parent[a] = b;
      }
    }
  }
  std::vector<std::uint32_t> comp_of_root(n, kNone);
  std::vector<std::vector<SimFlow*>> comps;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = uf_find(parent, i);
    if (comp_of_root[r] == kNone) {
      comp_of_root[r] = static_cast<std::uint32_t>(comps.size());
      comps.emplace_back();
    }
    comps[comp_of_root[r]].push_back(order[i]);
  }

  WaterfillScratch scratch;
  for (std::vector<SimFlow*>& comp : comps)
    solve_component(topo, comp.data(), comp.size(), capacities, scratch,
                    stats);

  if (stats != nullptr) {
    ++stats->allocations;
    stats->flows_solved += flows.size();
    stats->components_solved += comps.size();
    stats->dirty_links += used_links;
    for (const std::vector<SimFlow*>& comp : comps)
      stats->component_flows.add(static_cast<double>(comp.size()));
  }

  if (changed != nullptr) {
    for (std::size_t j = 0; j < flows.size(); ++j) {
      if (flows[j]->rate != old_rates[j])
        changed->push_back(RateChange{flows[j], old_rates[j]});
    }
  }
}

/// Convenience overload using the topology's nominal capacities.
inline void allocate_rates(const Topology& topo,
                           const std::vector<SimFlow*>& flows) {
  std::vector<Rate> capacities(topo.link_count());
  for (std::size_t i = 0; i < capacities.size(); ++i)
    capacities[i] = topo.capacity(LinkId{i});
  allocate_rates(topo, capacities, flows);
}

}  // namespace gurita
