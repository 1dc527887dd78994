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
// link capacity change, rate cap, priority change) seed dirty links;
// allocate() walks the link <-> flow membership once from those seeds,
// which both closes the frontier over shared-bottleneck dependencies and
// discovers the affected link-connected components, then re-solves only
// those with solve_component.
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
#include "topology/topology.h"

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
  std::uint64_t dirty_links = 0;       ///< links the walk claimed (closure)
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
  /// Residual carried across the tier groups of a multi-tier component.
  /// Scratch only: a single-tier component never touches it, and no caller
  /// may read it after solve_component (waterfill_tier hands a group's
  /// residuals back through the caller's own array).
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
///
/// A component whose first and last flow share a tier is one group: the
/// kernel reads its links' capacities directly and carries nothing. Only a
/// multi-tier component builds the LinkId-indexed carried residual
/// (WaterfillScratch::residual). Both paths run the same kernel on the same
/// operands, so the rates are the same bits either way.
void solve_component(const Topology& topo, SimFlow* const* flows,
                     std::size_t n, const std::vector<Rate>& capacities,
                     WaterfillScratch& scratch, AllocStats* stats);

/// One tier group through the same kernel: `group[0..n)` shares one tier;
/// `residual` (indexed by LinkId value) must cover every link the group
/// touches and is consumed in place. This is solve_component's per-group
/// step with the residual made explicit, for callers that chain groups
/// themselves and read the residuals back (the test oracles).
void waterfill_tier(const Topology& topo, SimFlow* const* group,
                    std::size_t n, Rate* residual, WaterfillScratch& scratch);

/// Incremental water-filling allocator (DESIGN.md §13).
///
/// The engine notifies it of every event that can change an allocation:
/// flow arrival/finish/abort (add_flow/remove_flow), link capacity changes
/// (dirty_link), and rate caps and priority changes (touch_flow, which the
/// PriorityWriter in state.h calls for every flow it rewrites). allocate()
/// then runs one breadth-first walk of the link <-> flow adjacency (flat
/// SoA membership lists) from the dirty seeds: each search claims one
/// affected component as a slice of the worklist. It re-solves those
/// components with the shared kernel and reports exactly the flows whose
/// rate moved — in active-list order, bitwise identical to what a
/// from-scratch solve of the whole active set would report.
///
/// The class owns no simulation state that cannot be rebuilt: a restored
/// simulator calls rebuild(active) and the first allocation re-solves
/// everything (purity makes that byte-identical to the uninterrupted run),
/// so snapshots need not serialize any of this.
class RateAllocator {
 public:
  RateAllocator() = default;
  RateAllocator(const RateAllocator&) = delete;
  RateAllocator& operator=(const RateAllocator&) = delete;

  /// (Re-)initializes for a run: sizes per-link arrays, clears membership
  /// and the frontier, reserves per-flow arrays for `flow_capacity` ids.
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
  /// The flow's priority changed, or its stored rate differs from its pure
  /// allocation (straggler windows): dirty its links so the next allocate()
  /// re-solves it. A no-op for a flow that is not a member.
  void touch_flow(SimFlow* flow);
  /// The link's capacity changed (link fault): seed the frontier with it.
  void dirty_link(LinkId link);

  /// Recomputes rates: one walk from the dirty seeds finds the affected
  /// components (kAllocFrontier), each is sorted by (tier, id) and
  /// re-solved, and `changed` (cleared first) is filled with the flows whose
  /// rate moved, in `active` order — the same list a from-scratch solve
  /// would produce (kAllocConverge). `profiler` may be null.
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
  std::vector<Rate> old_rate_;           ///< rate when marked affected
  std::vector<std::uint8_t> flow_mark_;  ///< 1 while in affected_, else 0

  // --- event seeds + per-allocation worklists ---
  std::vector<char> link_dirty_;         ///< link is in dirty_list_
  std::vector<LinkId> dirty_list_;       ///< seed links since last allocate
  std::vector<SimFlow*> affected_;       ///< components, one slice each
  /// Component c is affected_[component_off_[c], component_off_[c + 1]).
  std::vector<std::uint32_t> component_off_;
  std::vector<char> link_claimed_;       ///< link reached by the walk
  std::vector<LinkId> claimed_links_;

  WaterfillScratch scratch_;
};

}  // namespace gurita
