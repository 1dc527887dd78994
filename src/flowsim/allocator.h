// Tiered weighted max-min rate allocation.
//
// All eight schedulers in the reproduction share one allocation mechanism:
//
//   1. Active flows are grouped by `tier` (ascending). Tier t is allocated
//      only the capacity tiers < t left unused — this is strict priority
//      queuing (SPQ), the enforcement primitive the paper relies on, and
//      also expresses Baraat's FIFO-LM (tier = batch serial) and Aalo's
//      priority queues.
//   2. Within one tier, rates follow *weighted max-min fairness* computed by
//      progressive filling (water-filling): repeatedly find the bottleneck
//      link (smallest residual capacity per unit weight), freeze its flows
//      at their fair share, and continue. Weight 1 everywhere reproduces
//      per-flow fair sharing (the PFS baseline / TCP approximation); the
//      WRR starvation-mitigation mode maps queue weights onto flow weights.
//
// The result is work-conserving: no link with an unfrozen flow is left with
// spare capacity.
//
// RateAllocator is the engine's allocator: event hooks (flow add/remove,
// link capacity change, rate cap) seed a dirty-link frontier; allocate()
// closes the frontier over shared-bottleneck dependencies and re-solves
// only the affected link-connected components with solve_component.
// Unaffected flows keep their cached rates, which purity (rates are a
// function of (component flows, tiers, weights, caps) only) guarantees are
// the bits a full re-solve would produce. The from-scratch solver it is
// held byte-identical to lives in tests/allocator_oracle.h (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "flowsim/state.h"
#include "obs/profiler.h"
#include "topology/graph.h"

namespace gurita {

/// One flow whose allocated rate differs (bitwise) from the rate it carried
/// going into the recomputation, together with that previous rate. The old
/// rate is what the engine needs to settle the flow's lazy byte drain over
/// the interval the flow actually transmitted at it.
struct RateChange {
  SimFlow* flow = nullptr;
  Rate old_rate = 0;
};

/// Allocator names kept for perfbench, which prints the active kind and
/// refuses to run when GURITA_ALLOCATOR / ALLOCATOR asks for the oracle.
/// Nothing else reads them: the engine always runs RateAllocator.
enum class AllocatorKind : std::uint8_t {
  kIncremental = 0,  ///< dirty-link frontier + cached component rates
  kOracle = 1,       ///< from-scratch re-solve, compiled into tests only
};

[[nodiscard]] const char* to_string(AllocatorKind kind);

/// The GURITA_ALLOCATOR environment variable (falling back to ALLOCATOR)
/// set to "oracle" yields AllocatorKind::kOracle; any other value —
/// including unset — yields kIncremental. Read once and cached.
[[nodiscard]] AllocatorKind default_allocator_kind();

/// Work counters for one run's allocations. Diagnostic only: they are not
/// part of the determinism contract (a restored run re-solves everything on
/// its first allocation, so its counters differ from the uninterrupted
/// run's even though every simulation byte matches) and therefore live
/// outside SimResults, like the phase profiler.
struct AllocStats {
  std::uint64_t allocations = 0;       ///< allocate() calls
  std::uint64_t flows_solved = 0;      ///< flows passed through the kernel
  std::uint64_t components_solved = 0; ///< components re-converged
  std::uint64_t dirty_links = 0;       ///< frontier size after closure
  std::uint64_t waterfill_rounds = 0;  ///< progressive-filling rounds
  /// Live-list entries the rounds' bottleneck scans visited (each round
  /// scans its live list once for the minimum and once to collect).
  std::uint64_t live_link_visits = 0;
  /// Distribution of re-converged component sizes (flows per
  /// solve_component call), log2-bucketed. Like the counters above this is
  /// diagnostic only — it surfaces through the --diagnostics export, never
  /// through fingerprinted registries.
  LogHistogram component_flows{2.0};

  /// Sums another run's counters and component-size distribution in (the
  /// diagnostics pooling ComparisonResult::absorb performs).
  void merge(const AllocStats& other) {
    allocations += other.allocations;
    flows_solved += other.flows_solved;
    components_solved += other.components_solved;
    dirty_links += other.dirty_links;
    waterfill_rounds += other.waterfill_rounds;
    live_link_visits += other.live_link_visits;
    component_flows.merge(other.component_flows);
  }
};

/// Reusable scratch for the water-filling kernel. Only the LinkId-indexed
/// arrays are sized to the topology; everything a tier group works on lives
/// in *position space* — a link's position is its index in first-touch
/// order over the group's flows — so the rounds touch only contiguous
/// arrays indexed by the group's own links. Position and flow arrays grow
/// to the largest group seen and are reused; a solve costs O(component),
/// not O(links).
struct WaterfillScratch {
  // --- LinkId-indexed (sized by ensure) ---
  std::vector<std::uint32_t> link_pos;     ///< position, kNoPos outside a group
  /// Residual carried across tier groups; after solve_component it holds
  /// the component's final residuals.
  std::vector<Rate> residual;
  std::vector<char> residual_init;         ///< residual[l] is initialized
  std::vector<LinkId> residual_links;      ///< links with residual_init set

  // --- position-indexed (one entry per link the group touches) ---
  std::vector<LinkId> touched;             ///< position -> link
  std::vector<double> weight;              ///< sum of unfrozen weights
  std::vector<std::uint32_t> unfrozen;     ///< count of unfrozen flows
  std::vector<Rate> pos_residual;          ///< residual, written back at end
  std::vector<double> share;               ///< residual/weight; +inf once dead
  std::vector<std::uint32_t> off;          ///< CSR: slice [off[p], off[p+1])
  std::vector<std::uint32_t> live;         ///< positions with unfrozen flows

  // --- flow-indexed ---
  /// Flow i's path, as positions, is path_pos[path_off[i], path_off[i+1]).
  std::vector<std::uint32_t> path_off;
  std::vector<std::uint32_t> path_pos;
  std::vector<std::uint32_t> csr;          ///< flow indices, position-major
  std::vector<char> frozen;                ///< per-flow freeze bit

  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  /// Sizes the LinkId-indexed arrays for `links`; values are maintained by
  /// the kernel's touched-list resets, so this is cheap after the first call.
  void ensure(std::size_t links);

  /// Reserved bytes across all scratch arrays (obs/memory.h accounting).
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Solves one link-connected component: `flows[0..n)` sorted by (tier, id),
/// tier groups filled in order with each group consuming the residual the
/// previous groups left (SPQ). Residual capacity starts at `capacities` for
/// every link the component touches. Writes flow rates. When `stats` is
/// non-null the kernel's rounds and live-link visits are added to it.
void solve_component(const Topology& topo, SimFlow* const* flows,
                     std::size_t n, const std::vector<Rate>& capacities,
                     WaterfillScratch& scratch, AllocStats* stats);

/// Incremental water-filling allocator (DESIGN.md §13).
///
/// The engine notifies it of every event that can change an allocation:
/// flow arrival/finish/abort (add_flow/remove_flow), link capacity changes
/// (dirty_link) and direct rate caps (touch_flow); scheduler priority
/// rewrites are caught by allocate()'s tier/weight mirror scan. allocate()
/// then closes the dirty-link frontier over the link <-> flow adjacency
/// (flat SoA membership lists), re-solves only the affected components with
/// the shared kernel, and reports exactly the flows whose rate moved — in
/// active-list order, bitwise identical to what a from-scratch solve of
/// the whole active set would report.
///
/// The class owns no simulation state that cannot be rebuilt: a restored
/// simulator calls rebuild(active) and the first allocation re-solves
/// everything (purity makes that byte-identical to the uninterrupted run),
/// so snapshots need not serialize any of this.
class RateAllocator {
 public:
  RateAllocator() = default;
  RateAllocator(RateAllocator&&) = default;
  RateAllocator& operator=(RateAllocator&&) = default;
  RateAllocator(const RateAllocator&) = delete;
  RateAllocator& operator=(const RateAllocator&) = delete;

  /// (Re-)initializes for a run: sizes per-link arrays, clears membership
  /// and the frontier, reserves per-flow arrays for `flow_capacity` ids.
  /// Reuses existing vector capacity, so pooled reuse allocates nothing.
  void reset(const Topology* topo, std::size_t flow_capacity);

  [[nodiscard]] const AllocStats& stats() const { return stats_; }

  /// Reserved bytes of the membership lists, per-flow arrays, worklists and
  /// kernel scratch — the allocator's real footprint for the memory
  /// accountant (obs/memory.h). Diagnostic only.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Flow entered the active set: links into every path link's membership
  /// list (O(path)) and dirties those links. Entry slots are assigned once
  /// per flow id and reused on retry re-entry (the path is stable).
  void add_flow(SimFlow* flow);
  /// Flow left the active set (finish/abort/cancel): unlinks and dirties.
  void remove_flow(SimFlow* flow);
  /// The flow's stored rate was changed outside the allocator (straggler
  /// caps) or differs from its pure allocation (TCP ramp / straggler
  /// windows): dirty its links so the next allocate() re-reports it.
  void touch_flow(SimFlow* flow);
  /// The link's capacity changed (disruption, link fault): seed the
  /// frontier with it.
  void dirty_link(LinkId link);

  /// Recomputes rates: mirror-scans `active` for tier/weight changes,
  /// closes the dirty frontier, re-solves affected components, and fills
  /// `changed` (cleared first) with the flows whose rate moved, in
  /// `active` order — the same list a from-scratch solve would produce.
  /// `profiler` (may be null) receives the kAllocFrontier /
  /// kAllocConverge sub-phases.
  void allocate(const std::vector<Rate>& capacities,
                const std::vector<SimFlow*>& active,
                std::vector<RateChange>* changed,
                obs::PhaseProfiler* profiler);

  /// Rebuilds membership from scratch after a snapshot restore: re-adds
  /// every active flow, leaving all their links dirty, so the next
  /// allocate() re-solves the full active set. Purity makes the result —
  /// and the reported changes — byte-identical to the uninterrupted run's.
  void rebuild(const std::vector<SimFlow*>& active);

 private:
  static constexpr std::int32_t kNil = -1;

  /// Grows the per-flow-id arrays to cover `fid`.
  void ensure_flow(std::size_t fid);

  const Topology* topo_ = nullptr;
  AllocStats stats_;

  // --- flat SoA membership: per link an intrusive doubly-linked list of
  // entries, one entry per (flow, path link). A flow's entries occupy the
  // contiguous slot range [slot_offset_[fid], slot_offset_[fid] + path
  // length), assigned at first add and reused on retry re-entry.
  std::vector<std::int32_t> head_;       ///< per link: first entry or kNil
  std::vector<SimFlow*> ent_flow_;       ///< entry -> flow
  std::vector<std::int32_t> ent_next_;   ///< entry -> next on same link
  std::vector<std::int32_t> ent_prev_;   ///< entry -> previous on same link

  // --- per-flow-id state (grown on demand) ---
  std::vector<std::int32_t> slot_offset_;///< first entry slot, kNil if none
  std::vector<char> in_;                 ///< currently a member
  std::vector<Tier> tier_mirror_;        ///< tier at last allocation
  std::vector<double> weight_mirror_;    ///< weight at last allocation
  std::vector<Rate> old_rate_;           ///< rate when marked affected
  std::vector<std::uint8_t> flow_mark_;  ///< 0 clean / 1 affected / 2 claimed

  // --- dirty frontier + per-allocation worklists ---
  std::vector<char> link_dirty_;         ///< link is in dirty_list_
  std::vector<LinkId> dirty_list_;
  std::vector<SimFlow*> affected_;       ///< closure of the frontier
  std::vector<SimFlow*> component_;      ///< one component, sorted (tier,id)
  std::vector<char> link_claimed_;       ///< link visited by component BFS
  std::vector<LinkId> claimed_links_;

  WaterfillScratch scratch_;
};

}  // namespace gurita
