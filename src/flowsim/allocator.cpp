#include "flowsim/allocator.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace gurita {

const char* to_string(AllocatorKind kind) {
  switch (kind) {
    case AllocatorKind::kIncremental: return "incremental";
    case AllocatorKind::kOracle: return "oracle";
  }
  return "?";
}

AllocatorKind default_allocator_kind() {
  static const AllocatorKind kind = [] {
    const char* v = std::getenv("GURITA_ALLOCATOR");
    if (v == nullptr || *v == '\0') v = std::getenv("ALLOCATOR");
    if (v != nullptr && std::strcmp(v, "oracle") == 0)
      return AllocatorKind::kOracle;
    return AllocatorKind::kIncremental;
  }();
  return kind;
}

void WaterfillScratch::ensure(std::size_t links) {
  if (link_pos.size() < links) {
    link_pos.resize(links, kNoPos);
    residual.resize(links, 0.0);
    residual_init.resize(links, 0);
  }
}

namespace {

/// Work one or more tier groups did, for AllocStats.
struct KernelWork {
  std::uint64_t rounds = 0;
  std::uint64_t live_link_visits = 0;
};

/// The share a link offers its unfrozen flows — the one expression every
/// bottleneck comparison uses, evaluated only when a freeze changes its
/// operands. A link with no unfrozen flow left offers +inf, which the
/// minimum ignores exactly as it would skip the link.
double link_share(Rate residual, double weight, std::uint32_t unfrozen) {
  if (unfrozen == 0) return std::numeric_limits<double>::infinity();
  return residual / std::max(weight, 1e-300);
}

/// Rejects flows the kernel cannot fill. Runs before any scratch state is
/// claimed, so a rejected input leaves the scratch reusable.
void validate_flows(SimFlow* const* flows, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    GURITA_CHECK_MSG(!flows[i]->path.empty(), "active flow with empty path");
    GURITA_CHECK_MSG(flows[i]->weight > 0, "flow weight must be positive");
  }
}

/// One tier group's progressive filling. `group[0..n)` all share one tier
/// and passed validate_flows. Each link the group touches starts at
/// `start[l]` (indexed by LinkId value); when `out` is non-null the group's
/// final residuals are written back to `out[l]` (the carried residual of a
/// multi-tier component passes the same array as both). The
/// arithmetic — including the bottleneck tolerance clauses — is the
/// original allocator's verbatim, so rates are bit-identical to the
/// historical implementation whenever the bottleneck shares are not within
/// one part in 10^12 of each other across components (exact ties produce
/// the exact same share either way).
///
/// All per-link state lives in position space (WaterfillScratch). Against
/// the textbook loop that rescans every touched link and divides twice per
/// visit (tests/waterfill_scan_oracle.h), three things change and none
/// moves a bit: shares are cached and recomputed, with the same expression
/// over the same operands, only when a freeze updates their link; links
/// are visited in the same first-touch order; and a link leaves the live
/// list once its last flow froze, which only drops visits the scan would
/// have skipped.
///
/// Kept out of line: inlined into solve_component's tier loop, its only
/// caller, it measured 4–10% slower on perfbench fat8-trace (gcc 12,
/// Release, 4-core x86-64).
[[gnu::noinline]] KernelWork waterfill_group(SimFlow* const* group,
                                             std::size_t n, const Rate* start,
                                             Rate* out, WaterfillScratch& s) {
  std::size_t path_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    group[i]->rate = 0;
    path_total += group[i]->path.size();
  }
  if (s.off.size() <= path_total) {
    s.touched.resize(path_total);
    s.weight.resize(path_total);
    s.unfrozen.resize(path_total);
    s.pos_residual.resize(path_total);
    s.share.resize(path_total);
    s.off.resize(path_total + 1);
    s.live.resize(path_total);
    s.path_pos.resize(path_total);
    s.csr.resize(path_total);
  }
  if (s.path_off.size() < n + 1) s.path_off.resize(n + 1);

  // Build, one pass in flow order: positions in first-touch order, per
  // position weight and flow count (the initial unfrozen count), each
  // flow's path as positions.
  std::uint32_t npos = 0;
  std::uint32_t k = 0;
  s.path_off[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SimFlow* f = group[i];
    for (LinkId l : f->path) {
      std::uint32_t& pos = s.link_pos[l.value()];
      if (pos == WaterfillScratch::kNoPos) {
        pos = npos++;
        s.touched[pos] = l;
        s.weight[pos] = 0.0;
        s.unfrozen[pos] = 0;
      }
      s.weight[pos] += f->weight;
      ++s.unfrozen[pos];
      s.path_pos[k++] = pos;
    }
    s.path_off[i + 1] = k;
  }
  // CSR: slice ends by prefix sum, then a reverse fill decrements each end
  // to its start, leaving every slice's flows in ascending index order.
  std::uint32_t base = 0;
  for (std::uint32_t p = 0; p < npos; ++p) {
    base += s.unfrozen[p];
    s.off[p] = base;
    s.pos_residual[p] = start[s.touched[p].value()];
    s.share[p] = link_share(s.pos_residual[p], s.weight[p], s.unfrozen[p]);
    s.live[p] = p;
  }
  s.off[npos] = base;
  for (std::size_t i = n; i-- > 0;) {
    for (std::uint32_t j = s.path_off[i + 1]; j-- > s.path_off[i];)
      s.csr[--s.off[s.path_pos[j]]] = static_cast<std::uint32_t>(i);
  }

  s.frozen.assign(n, 0);
  std::size_t remaining = n;
  std::uint32_t nlive = npos;
  KernelWork work;

  // Progressive filling: each round finds the bottleneck share, freezes
  // every flow crossing a bottleneck link, consumes capacity, repeats.
  // Work per round is O(live links + flows frozen this round).
  while (remaining > 0) {
    ++work.rounds;
    work.live_link_visits += nlive;
    double best_share = std::numeric_limits<double>::infinity();
    for (std::uint32_t j = 0; j < nlive; ++j)
      best_share = std::min(best_share, s.share[s.live[j]]);
    GURITA_CHECK_MSG(best_share < std::numeric_limits<double>::infinity(),
                     "unfrozen flows but no carrying link");
    best_share = std::max(best_share, 0.0);

    // Freezing a flow preserves the share of every other link it crosses
    // (weight and capacity leave together), so collecting the bottleneck
    // links once per round is sound. The collect pass compacts the live
    // list in place, stably: a bottleneck link has no unfrozen flow left
    // once its slice is frozen, and a link a freeze emptied is dropped the
    // next time the pass reaches it.
    bool froze_any = false;
    std::uint32_t kept = 0;
    for (std::uint32_t j = 0; j < nlive; ++j) {
      const std::uint32_t p = s.live[j];
      if (s.unfrozen[p] == 0) continue;
      if (s.share[p] > best_share * (1 + 1e-12) &&
          s.pos_residual[p] > 1e-9) {
        s.live[kept++] = p;
        continue;
      }
      for (std::uint32_t c = s.off[p]; c < s.off[p + 1]; ++c) {
        const std::uint32_t idx = s.csr[c];
        if (s.frozen[idx]) continue;
        const double weight = group[idx]->weight;
        const Rate rate = weight * best_share;
        group[idx]->rate = rate;
        s.frozen[idx] = 1;
        froze_any = true;
        --remaining;
        for (std::uint32_t e = s.path_off[idx]; e < s.path_off[idx + 1];
             ++e) {
          const std::uint32_t q = s.path_pos[e];
          s.weight[q] -= weight;
          --s.unfrozen[q];
          s.pos_residual[q] -= rate;
          if (s.pos_residual[q] < 0) s.pos_residual[q] = 0;
          s.share[q] =
              link_share(s.pos_residual[q], s.weight[q], s.unfrozen[q]);
        }
      }
    }
    nlive = kept;
    GURITA_CHECK_MSG(froze_any, "waterfill failed to make progress");
  }

  // Hand the residuals back by LinkId for the next tier group, if there is
  // one, and leave link_pos all-sentinel for the next group's build.
  if (out != nullptr) {
    for (std::uint32_t p = 0; p < npos; ++p)
      out[s.touched[p].value()] = s.pos_residual[p];
  }
  for (std::uint32_t p = 0; p < npos; ++p)
    s.link_pos[s.touched[p].value()] = WaterfillScratch::kNoPos;
  return work;
}

void add_work(AllocStats* stats, const KernelWork& work) {
  if (stats == nullptr) return;
  stats->waterfill_rounds += work.rounds;
  stats->live_link_visits += work.live_link_visits;
}

}  // namespace

void waterfill_tier(const Topology& topo, SimFlow* const* group,
                    std::size_t n, Rate* residual, WaterfillScratch& scratch) {
  validate_flows(group, n);
  GURITA_CHECK_MSG(n == 0 || group[0]->tier == group[n - 1]->tier,
                   "waterfill_tier wants one tier group");
  scratch.ensure(topo.link_count());
  (void)waterfill_group(group, n, residual, residual, scratch);
}

void solve_component(const Topology& topo, SimFlow* const* flows,
                     std::size_t n, const std::vector<Rate>& capacities,
                     WaterfillScratch& scratch, AllocStats* stats) {
  validate_flows(flows, n);
  scratch.ensure(topo.link_count());
  if (n == 0) return;
  // One tier group (the component is sorted by tier): nothing is carried
  // to a later group, so every link starts at its capacity and no residual
  // is written back.
  if (flows[0]->tier == flows[n - 1]->tier) {
    add_work(stats,
             waterfill_group(flows, n, capacities.data(), nullptr, scratch));
    return;
  }
  // Several tier groups: residual capacity, initialized lazily for just
  // this component's links and carried across its groups (SPQ: lower tiers
  // consume first).
  for (std::size_t i = 0; i < n; ++i) {
    for (LinkId l : flows[i]->path) {
      if (scratch.residual_init[l.value()]) continue;
      scratch.residual_init[l.value()] = 1;
      scratch.residual[l.value()] = capacities[l.value()];
      scratch.residual_links.push_back(l);
    }
  }
  Rate* residual = scratch.residual.data();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t start = i;
    const Tier tier = flows[i]->tier;
    while (i < n && flows[i]->tier == tier) ++i;
    add_work(stats, waterfill_group(flows + start, i - start, residual,
                                    residual, scratch));
  }
  for (LinkId l : scratch.residual_links)
    scratch.residual_init[l.value()] = 0;
  scratch.residual_links.clear();
}

// --- RateAllocator -----------------------------------------------------------

void RateAllocator::reset(const Topology* topo, std::size_t flow_capacity) {
  topo_ = topo;
  stats_ = AllocStats{};
  const std::size_t links = topo->link_count();
  head_.assign(links, kNil);
  link_dirty_.assign(links, 0);
  link_claimed_.assign(links, 0);
  dirty_list_.clear();
  claimed_links_.clear();
  ent_flow_.clear();
  ent_next_.clear();
  ent_prev_.clear();
  slot_offset_.clear();
  in_.clear();
  old_rate_.clear();
  flow_mark_.clear();
  affected_.clear();
  component_off_.clear();
  slot_offset_.reserve(flow_capacity);
  in_.reserve(flow_capacity);
  old_rate_.reserve(flow_capacity);
  flow_mark_.reserve(flow_capacity);
  scratch_.ensure(links);
}

void RateAllocator::ensure_flow(std::size_t fid) {
  if (fid < in_.size()) return;
  const std::size_t n = std::max(fid + 1, in_.size() * 2);
  in_.resize(n, 0);
  slot_offset_.resize(n, kNil);
  old_rate_.resize(n, 0.0);
  flow_mark_.resize(n, 0);
}

void RateAllocator::dirty_link(LinkId link) {
  if (link_dirty_[link.value()]) return;
  link_dirty_[link.value()] = 1;
  dirty_list_.push_back(link);
}

void RateAllocator::add_flow(SimFlow* flow) {
  const std::size_t fid = flow->id.value();
  ensure_flow(fid);
  std::int32_t slot = slot_offset_[fid];
  if (slot == kNil) {
    slot = static_cast<std::int32_t>(ent_flow_.size());
    slot_offset_[fid] = slot;
    ent_flow_.resize(ent_flow_.size() + flow->path.size(), nullptr);
    ent_next_.resize(ent_flow_.size(), kNil);
    ent_prev_.resize(ent_flow_.size(), kNil);
  }
  for (std::size_t k = 0; k < flow->path.size(); ++k) {
    const std::int32_t e = slot + static_cast<std::int32_t>(k);
    const std::size_t l = flow->path[k].value();
    ent_flow_[e] = flow;
    ent_prev_[e] = kNil;
    ent_next_[e] = head_[l];
    if (head_[l] != kNil) ent_prev_[head_[l]] = e;
    head_[l] = e;
    dirty_link(flow->path[k]);
  }
  in_[fid] = 1;
}

void RateAllocator::remove_flow(SimFlow* flow) {
  const std::size_t fid = flow->id.value();
  if (fid >= in_.size() || !in_[fid]) return;
  const std::int32_t slot = slot_offset_[fid];
  for (std::size_t k = 0; k < flow->path.size(); ++k) {
    const std::int32_t e = slot + static_cast<std::int32_t>(k);
    const std::size_t l = flow->path[k].value();
    if (ent_prev_[e] != kNil)
      ent_next_[ent_prev_[e]] = ent_next_[e];
    else
      head_[l] = ent_next_[e];
    if (ent_next_[e] != kNil) ent_prev_[ent_next_[e]] = ent_prev_[e];
    ent_next_[e] = kNil;
    ent_prev_[e] = kNil;
    dirty_link(flow->path[k]);
  }
  in_[fid] = 0;
}

void RateAllocator::touch_flow(SimFlow* flow) {
  const std::size_t fid = flow->id.value();
  if (fid >= in_.size() || !in_[fid]) return;
  for (LinkId l : flow->path) dirty_link(l);
}

void RateAllocator::rebuild(const std::vector<SimFlow*>& active) {
  std::fill(head_.begin(), head_.end(), kNil);
  std::fill(link_dirty_.begin(), link_dirty_.end(), 0);
  dirty_list_.clear();
  ent_flow_.clear();
  ent_next_.clear();
  ent_prev_.clear();
  std::fill(in_.begin(), in_.end(), 0);
  std::fill(slot_offset_.begin(), slot_offset_.end(), kNil);
  std::fill(flow_mark_.begin(), flow_mark_.end(), 0);
  for (SimFlow* f : active) add_flow(f);
}

void RateAllocator::allocate(const std::vector<Rate>& capacities,
                             const std::vector<SimFlow*>& active,
                             std::vector<RateChange>* changed,
                             obs::PhaseProfiler* profiler) {
  ++stats_.allocations;

  {
    obs::ScopedPhase frontier(profiler, obs::Phase::kAllocFrontier);
    // One breadth-first walk of the membership lists finds the components
    // to re-solve. dirty_list_ holds the event seeds (priority changes are
    // among them: the PriorityWriter touches their flows). A claimed link
    // re-solves its flows; a re-solved flow re-solves every link it
    // crosses (its share there may shift). Each seed not yet claimed starts
    // a search that ends with exactly its link-connected component, left in
    // affected_ as the slice [component_off_[c], component_off_[c + 1]); a
    // seed whose flows all left yields no slice. The slices together are
    // the union of the components containing any seed — exactly the set
    // whose rates can legally change.
    const auto claim = [this](LinkId link) {
      link_claimed_[link.value()] = 1;
      claimed_links_.push_back(link);
      for (std::int32_t e = head_[link.value()]; e != kNil; e = ent_next_[e]) {
        SimFlow* f = ent_flow_[e];
        const std::size_t fid = f->id.value();
        if (flow_mark_[fid] != 0) continue;
        flow_mark_[fid] = 1;
        old_rate_[fid] = f->rate;
        affected_.push_back(f);
      }
    };
    component_off_.assign(1, 0);
    for (LinkId seed : dirty_list_) {
      if (link_claimed_[seed.value()]) continue;
      const std::size_t begin = affected_.size();
      claim(seed);
      for (std::size_t i = begin; i < affected_.size(); ++i)
        for (LinkId l : affected_[i]->path)
          if (!link_claimed_[l.value()]) claim(l);
      if (affected_.size() > begin)
        component_off_.push_back(static_cast<std::uint32_t>(affected_.size()));
    }
    stats_.dirty_links += claimed_links_.size();
    stats_.flows_solved += affected_.size();
  }

  {
    obs::ScopedPhase converge(profiler, obs::Phase::kAllocConverge);
    // Re-solve each component with the shared kernel, its flows sorted
    // by (tier, id). Solves are pure, so their order is unobservable.
    for (std::size_t c = 0; c + 1 < component_off_.size(); ++c) {
      SimFlow** first = affected_.data() + component_off_[c];
      const std::size_t n = component_off_[c + 1] - component_off_[c];
      std::sort(first, first + n, [](const SimFlow* a, const SimFlow* b) {
        if (a->tier != b->tier) return a->tier < b->tier;
        return a->id < b->id;
      });
      solve_component(*topo_, first, n, capacities, scratch_, &stats_);
      ++stats_.components_solved;
      stats_.component_flows.add(static_cast<double>(n));
    }

    // Changed flows, in active order — the exact list (content and order)
    // a from-scratch solve reports: an unaffected flow's cached rate is bitwise what
    // a re-solve would produce, so it cannot have "changed".
    if (changed != nullptr) {
      changed->clear();
      for (SimFlow* f : active) {
        const std::size_t fid = f->id.value();
        if (flow_mark_[fid] != 0 && f->rate != old_rate_[fid])
          changed->push_back(RateChange{f, old_rate_[fid]});
      }
    }

    for (const SimFlow* f : affected_) flow_mark_[f->id.value()] = 0;
    affected_.clear();
    for (LinkId l : claimed_links_) link_claimed_[l.value()] = 0;
    claimed_links_.clear();
    for (LinkId l : dirty_list_) link_dirty_[l.value()] = 0;
    dirty_list_.clear();
  }
}

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t WaterfillScratch::memory_bytes() const {
  return vec_bytes(link_pos) + vec_bytes(residual) +
         vec_bytes(residual_init) + vec_bytes(residual_links) +
         vec_bytes(touched) + vec_bytes(weight) + vec_bytes(unfrozen) +
         vec_bytes(pos_residual) + vec_bytes(share) + vec_bytes(off) +
         vec_bytes(live) + vec_bytes(path_off) + vec_bytes(path_pos) +
         vec_bytes(csr) + vec_bytes(frozen);
}

std::size_t RateAllocator::memory_bytes() const {
  return vec_bytes(head_) + vec_bytes(ent_flow_) + vec_bytes(ent_next_) +
         vec_bytes(ent_prev_) + vec_bytes(slot_offset_) + vec_bytes(in_) +
         vec_bytes(old_rate_) + vec_bytes(flow_mark_) +
         vec_bytes(link_dirty_) + vec_bytes(dirty_list_) +
         vec_bytes(affected_) + vec_bytes(component_off_) +
         vec_bytes(link_claimed_) + vec_bytes(claimed_links_) +
         scratch_.memory_bytes();
}

}  // namespace gurita
