// Differential harness for the incremental water-filling allocator
// (flowsim/allocator.h) against the from-scratch oracle
// (allocator_oracle.h). Three layers:
//
//  1. Lockstep fuzz at the allocator API: random synthetic event streams
//     (arrivals, finishes, in-place priority rewrites, capacity changes,
//     external rate caps, link flaps, mid-stream rebuilds) drive a
//     RateAllocator, and after *every* event the full rate vector and the
//     changed-list are compared bitwise against a from-scratch
//     allocate_rates() on a clone of the same flow set.
//
//  2. Hand-computed dirty-frontier timelines: an arrival that splits a
//     bottleneck, a finish that relaxes one, and an external rate cap
//     (the straggler pattern) — each with AllocStats assertions proving
//     the untouched component was *not* re-solved; the one-walk discovery
//     cases (several seeds in one component, seeds that find no flow,
//     components seeded in reverse id order); and the work counters of a
//     seeded engine run under five schedulers.
//
//  3. End-to-end fuzz at the engine API: 200 randomized traces (fabrics,
//     schedulers, fault plans) run uninterrupted and again split into
//     nine simulators by checkpoint/restore. Every
//     restore rebuilds the allocator, so the first allocation after it is
//     a full re-solve; results and structured traces must match bitwise.
//
// Failures print the trace seed for standalone reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "allocator_oracle.h"
#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "fault/plan.h"
#include "flowsim/allocator.h"
#include "flowsim/simulator.h"
#include "obs/trace.h"
#include "same_results.h"
#include "snapshot/snapshot.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"
#include "waterfill_scan_oracle.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

// ------------------------------------------------ allocator-level fuzz ---

/// Mutable flow population with stable addresses plus the incremental
/// allocator under test. The oracle side is re-derived from scratch on
/// every comparison, so it cannot inherit state to compare against.
struct LockstepHarness {
  const FatTree fabric;
  std::vector<Rate> caps;
  std::deque<SimFlow> store;  // stable addresses across growth
  std::vector<SimFlow*> active;
  std::vector<LinkId> down;  // links a flap zeroed, awaiting restore
  RateAllocator alloc;
  std::uint64_t next_id = 0;

  explicit LockstepHarness(std::uint64_t salt)
      : fabric(FatTree::Config{4, 100.0, salt}) {
    const Topology& topo = fabric.topology();
    caps.resize(topo.link_count());
    for (std::size_t l = 0; l < topo.link_count(); ++l)
      caps[l] = topo.capacity(LinkId{l});
    alloc.reset(&topo, /*flow_capacity=*/64);
  }

  SimFlow* arrive(Rng& rng) {
    const int src = static_cast<int>(rng.uniform_int(0, 15));
    int dst = static_cast<int>(rng.uniform_int(0, 15));
    if (dst == src) dst = (dst + 1) % 16;
    SimFlow f;
    f.id = FlowId{next_id++};
    f.size = 1000;
    f.remaining = 1000;
    f.path = fabric.route(f.id, src, dst);
    f.tier = static_cast<Tier>(rng.uniform_int(0, 2));
    f.weight = rng.uniform(0.1, 5.0);
    store.push_back(std::move(f));
    SimFlow* p = &store.back();
    active.push_back(p);
    alloc.add_flow(p);
    return p;
  }

  void finish(std::size_t idx) {
    alloc.remove_flow(active[idx]);
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  /// A priority rewrite, reported the way the engine's PriorityWriter
  /// reports one: touch_flow on the flow whose (tier, weight) moved.
  void reprioritize(Rng& rng, std::size_t idx) {
    SimFlow* f = active[idx];
    if (rng.next_double() < 0.5)
      f->tier = static_cast<Tier>((f->tier + 1) % 3);
    else
      f->weight = rng.uniform(0.1, 5.0);
    alloc.touch_flow(f);
  }

  void change_capacity(Rng& rng) {
    const LinkId l{rng.uniform_int(0, caps.size() - 1)};
    caps[l.value()] =
        fabric.topology().capacity(l) * rng.uniform(0.05, 1.0);
    alloc.dirty_link(l);
  }

  /// The straggler / TCP-ramp pattern: the engine caps a stored rate below
  /// the allocation and touch_flow()s it, so the next allocation must
  /// re-report the flow (the oracle always sees the capped rate as stale).
  void cap_rate(Rng& rng, std::size_t idx) {
    SimFlow* f = active[idx];
    f->rate *= rng.uniform(0.1, 0.9);
    alloc.touch_flow(f);
  }

  /// A link flap: either a live link fails (capacity 0) or the oldest
  /// failed link comes back at its nominal capacity, each with dirty_link.
  void flap(Rng& rng) {
    if (!down.empty() && rng.next_double() < 0.5) {
      const LinkId l = down.front();
      down.erase(down.begin());
      caps[l.value()] = fabric.topology().capacity(l);
      alloc.dirty_link(l);
      return;
    }
    const LinkId l{rng.uniform_int(0, caps.size() - 1)};
    caps[l.value()] = 0;
    down.push_back(l);
    alloc.dirty_link(l);
  }

  /// What restore() and admit()'s flow-store growth do: every flow moves
  /// to new storage, the active set is re-pointed and the allocator is
  /// rebuilt from it. The old storage dies, so a membership list that
  /// kept a stale pointer would read freed memory.
  void relocate_and_rebuild() {
    std::deque<SimFlow> moved(store.begin(), store.end());
    for (SimFlow*& f : active) f = &moved[f->id.value()];
    store.swap(moved);
    alloc.rebuild(active);
  }

  /// Runs both allocators and asserts bitwise agreement on every rate and
  /// on the changed-list (content, order, old rates).
  void expect_lockstep() {
    // Clone before the incremental pass mutates stored rates: the clones
    // carry the previous allocation, which is exactly what the oracle's
    // changed-list is computed against.
    std::vector<SimFlow> clones;
    clones.reserve(active.size());
    for (const SimFlow* f : active) clones.push_back(*f);
    std::vector<SimFlow*> clone_ptrs;
    clone_ptrs.reserve(clones.size());
    for (SimFlow& f : clones) clone_ptrs.push_back(&f);

    std::vector<RateChange> want_changed;
    allocate_rates(fabric.topology(), caps, clone_ptrs, &want_changed);

    std::vector<RateChange> got_changed;
    alloc.allocate(caps, active, &got_changed, /*profiler=*/nullptr);

    ASSERT_EQ(active.size(), clones.size());
    for (std::size_t i = 0; i < active.size(); ++i)
      EXPECT_EQ(active[i]->rate, clones[i].rate)
          << "flow " << active[i]->id << " diverged from oracle";

    ASSERT_EQ(got_changed.size(), want_changed.size())
        << "changed-list length diverged";
    for (std::size_t i = 0; i < got_changed.size(); ++i) {
      EXPECT_EQ(got_changed[i].flow->id, want_changed[i].flow->id)
          << "changed-list entry " << i;
      EXPECT_EQ(got_changed[i].old_rate, want_changed[i].old_rate)
          << "changed-list entry " << i;
    }
  }
};

void run_lockstep_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with lockstep seed " + std::to_string(seed));
  Rng rng(seed);
  LockstepHarness h(rng.next_u64());
  const int events = 40 + static_cast<int>(rng.uniform_int(0, 60));
  for (int e = 0; e < events; ++e) {
    const double roll = rng.next_double();
    if (h.active.empty() || roll < 0.35) {
      h.arrive(rng);
    } else if (roll < 0.55) {
      h.finish(rng.uniform_int(0, h.active.size() - 1));
    } else if (roll < 0.67) {
      h.reprioritize(rng, rng.uniform_int(0, h.active.size() - 1));
    } else if (roll < 0.77) {
      h.change_capacity(rng);
    } else if (roll < 0.87) {
      h.cap_rate(rng, rng.uniform_int(0, h.active.size() - 1));
    } else if (roll < 0.95) {
      h.flap(rng);
    } else {
      h.relocate_and_rebuild();
    }
    h.expect_lockstep();
    if (::testing::Test::HasFailure()) return;
  }
}

// Every event — not just every quiescent point — must leave the
// incremental allocator bitwise in agreement with a from-scratch solve.
TEST(AllocatorDifferentialLockstep, FuzzEveryEventAgainstOracle) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    run_lockstep_trial(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "lockstep fuzz diverged at seed " << seed
             << "; rerun run_lockstep_trial(" << seed << ") to debug";
    }
  }
}

// The allocation must be a pure function of (active set, capacities):
// reaching the same state through different dirty-event orders — including
// a detour through an extra flow — yields bitwise identical rates.
TEST(AllocatorDifferentialLockstep, AllocationIndependentOfEventOrder) {
  const FatTree fabric(FatTree::Config{4, 100.0, 7});
  std::vector<Rate> caps(fabric.topology().link_count());
  for (std::size_t l = 0; l < caps.size(); ++l)
    caps[l] = fabric.topology().capacity(LinkId{l});

  auto make_population = [&] {
    std::vector<SimFlow> flows;
    for (std::uint64_t i = 0; i < 12; ++i) {
      SimFlow f;
      f.id = FlowId{i};
      f.size = 1000;
      f.remaining = 1000;
      f.path = fabric.route(f.id, static_cast<int>(i % 16),
                            static_cast<int>((i * 5 + 3) % 16));
      f.tier = static_cast<Tier>(i % 3);
      f.weight = 1.0 + static_cast<double>(i % 4);
      flows.push_back(std::move(f));
    }
    return flows;
  };

  // Order A: add 0..11 in id order, allocate once.
  std::vector<SimFlow> a = make_population();
  {
    RateAllocator alloc;
    alloc.reset(&fabric.topology(), a.size());
    std::vector<SimFlow*> active;
    for (SimFlow& f : a) active.push_back(&f);
    for (SimFlow* f : active) alloc.add_flow(f);
    alloc.allocate(caps, active, nullptr, nullptr);
  }

  // Order B: add in reverse, allocate after every arrival, then add and
  // remove a 13th flow that shares links with the others.
  std::vector<SimFlow> b = make_population();
  {
    RateAllocator alloc;
    alloc.reset(&fabric.topology(), 16);
    std::vector<SimFlow*> active;
    for (auto it = b.rbegin(); it != b.rend(); ++it) {
      active.push_back(&*it);
      alloc.add_flow(&*it);
      alloc.allocate(caps, active, nullptr, nullptr);
    }
    SimFlow extra;
    extra.id = FlowId{99};
    extra.size = 1000;
    extra.remaining = 1000;
    extra.path = fabric.route(extra.id, 0, 8);
    active.push_back(&extra);
    alloc.add_flow(&extra);
    alloc.allocate(caps, active, nullptr, nullptr);
    alloc.remove_flow(&extra);
    active.pop_back();
    alloc.allocate(caps, active, nullptr, nullptr);
  }

  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].rate, b[i].rate) << "flow " << i;
}

// Capacity and max-min optimality hold at every step of an incremental
// run, not just after a from-scratch solve (allocator_test.cpp covers the
// oracle; this covers the frontier path).
TEST(AllocatorDifferentialLockstep, IncrementalStepsRespectCapacityAndMaxMin) {
  Rng rng(11);
  LockstepHarness h(rng.next_u64());
  for (int e = 0; e < 60; ++e) {
    if (h.active.empty() || rng.next_double() < 0.5)
      h.arrive(rng);
    else
      h.finish(rng.uniform_int(0, h.active.size() - 1));
    h.alloc.allocate(h.caps, h.active, nullptr, nullptr);

    std::vector<double> used(h.caps.size(), 0.0);
    for (const SimFlow* f : h.active)
      for (LinkId l : f->path) used[l.value()] += f->rate;
    for (std::size_t l = 0; l < h.caps.size(); ++l)
      EXPECT_LE(used[l], h.caps[l] * (1 + 1e-9)) << "link " << l;
    for (const SimFlow* f : h.active) {
      EXPECT_GE(f->rate, 0.0);
      bool saturated = false;
      for (LinkId l : f->path)
        if (used[l.value()] >= h.caps[l.value()] * (1 - 1e-6))
          saturated = true;
      EXPECT_TRUE(saturated) << "flow " << f->id << " could be raised";
    }
  }
}

// -------------------------------------------- hand-computed timelines ---

/// Two disjoint host pairs through separate edge switches; pair 1 links
/// carry 90, pair 2 links carry 100. Component boundaries are exact, so
/// AllocStats counts are hand-checkable.
struct TwoPairFixture {
  Topology topo;
  LinkId up1, down1, up2, down2;
  std::vector<Rate> caps;

  TwoPairFixture() {
    up1 = topo.add_link(90.0);
    down1 = topo.add_link(90.0);
    up2 = topo.add_link(100.0);
    down2 = topo.add_link(100.0);
    caps = {90.0, 90.0, 100.0, 100.0};
  }

  static SimFlow flow(std::uint64_t id, std::vector<LinkId> path) {
    SimFlow f;
    f.id = FlowId{id};
    f.size = 1000;
    f.remaining = 1000;
    f.path = std::move(path);
    return f;
  }
};

TEST(AllocatorDifferentialTimeline, ArrivalSplitsOnlyItsBottleneck) {
  TwoPairFixture fx;
  SimFlow a = fx.flow(0, {fx.up1, fx.down1});
  SimFlow d = fx.flow(1, {fx.up2, fx.down2});
  RateAllocator alloc;
  alloc.reset(&fx.topo, 8);

  std::vector<SimFlow*> active = {&a, &d};
  alloc.add_flow(&a);
  alloc.add_flow(&d);
  alloc.allocate(fx.caps, active, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(a.rate, 90.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);

  // B arrives on pair 1: only {A, B} re-solve; D's component stays cached.
  const AllocStats before = alloc.stats();
  SimFlow b = fx.flow(2, {fx.up1, fx.down1});
  active.push_back(&b);
  alloc.add_flow(&b);
  std::vector<RateChange> changed;
  alloc.allocate(fx.caps, active, &changed, nullptr);
  const AllocStats after = alloc.stats();

  EXPECT_DOUBLE_EQ(a.rate, 45.0);
  EXPECT_DOUBLE_EQ(b.rate, 45.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u)
      << "arrival must not re-solve the untouched component";
  EXPECT_EQ(after.components_solved - before.components_solved, 1u);
  EXPECT_EQ(after.dirty_links - before.dirty_links, 2u);
  // A moved 90 -> 45 and B 0 -> 45; D must not appear.
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0].flow->id, a.id);
  EXPECT_EQ(changed[0].old_rate, 90.0);
  EXPECT_EQ(changed[1].flow->id, b.id);
  EXPECT_EQ(changed[1].old_rate, 0.0);
}

TEST(AllocatorDifferentialTimeline, FinishRelaxesOnlyItsBottleneck) {
  TwoPairFixture fx;
  SimFlow a = fx.flow(0, {fx.up1, fx.down1});
  SimFlow b = fx.flow(1, {fx.up1, fx.down1});
  SimFlow c = fx.flow(2, {fx.up1, fx.down1});
  SimFlow d = fx.flow(3, {fx.up2, fx.down2});
  RateAllocator alloc;
  alloc.reset(&fx.topo, 8);

  std::vector<SimFlow*> active = {&a, &b, &c, &d};
  for (SimFlow* f : active) alloc.add_flow(f);
  alloc.allocate(fx.caps, active, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(a.rate, 30.0);
  EXPECT_DOUBLE_EQ(b.rate, 30.0);
  EXPECT_DOUBLE_EQ(c.rate, 30.0);

  // B finishes: A and C absorb the slack; D's component is untouched.
  const AllocStats before = alloc.stats();
  alloc.remove_flow(&b);
  active.erase(active.begin() + 1);
  std::vector<RateChange> changed;
  alloc.allocate(fx.caps, active, &changed, nullptr);
  const AllocStats after = alloc.stats();

  EXPECT_DOUBLE_EQ(a.rate, 45.0);
  EXPECT_DOUBLE_EQ(c.rate, 45.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u);
  EXPECT_EQ(after.components_solved - before.components_solved, 1u);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0].flow->id, a.id);
  EXPECT_EQ(changed[1].flow->id, c.id);
}

TEST(AllocatorDifferentialTimeline, ExternalRateCapRedirtiesItsLinks) {
  // The straggler pattern: the engine caps a stored rate below the pure
  // allocation and touch_flow()s the victim before the next allocation, so
  // the allocator re-reports it exactly as the oracle would (the oracle
  // recomputes from scratch and always sees the capped value as stale).
  TwoPairFixture fx;
  SimFlow a = fx.flow(0, {fx.up1, fx.down1});
  SimFlow b = fx.flow(1, {fx.up1, fx.down1});
  SimFlow d = fx.flow(2, {fx.up2, fx.down2});
  RateAllocator alloc;
  alloc.reset(&fx.topo, 8);

  std::vector<SimFlow*> active = {&a, &b, &d};
  for (SimFlow* f : active) alloc.add_flow(f);
  alloc.allocate(fx.caps, active, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(a.rate, 45.0);

  a.rate = 10.0;  // external cap (straggler window / TCP ramp)
  alloc.touch_flow(&a);
  const AllocStats before = alloc.stats();
  std::vector<RateChange> changed;
  alloc.allocate(fx.caps, active, &changed, nullptr);
  const AllocStats after = alloc.stats();

  EXPECT_DOUBLE_EQ(a.rate, 45.0) << "cap lifted: pure allocation restored";
  EXPECT_DOUBLE_EQ(b.rate, 45.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);
  // Only the capped component re-solves, and only A is reported (B's pure
  // rate is unchanged bitwise).
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].flow->id, a.id);
  EXPECT_EQ(changed[0].old_rate, 10.0);
}

// ------------------------------------------ mixed-tier components ---

/// `links` parallel host->switch links; flows pick the links they cross.
struct MixedStar {
  Topology topo;
  std::vector<LinkId> l;
  std::vector<Rate> caps;

  explicit MixedStar(const std::vector<Rate>& capacities) : caps(capacities) {
    for (std::size_t i = 0; i < caps.size(); ++i) {
      l.push_back(topo.add_link(100.0));
    }
  }
};

SimFlow tiered_flow(std::uint64_t id, std::vector<LinkId> path, Tier tier,
                    double weight) {
  SimFlow f;
  f.id = FlowId{id};
  f.size = 1000;
  f.remaining = 1000;
  f.path = std::move(path);
  f.tier = tier;
  f.weight = weight;
  return f;
}

/// One allocation of `active` by `alloc`, checked bitwise against the
/// from-scratch oracle on clones (rates and the changed list) and, per
/// component, against the scan kernel chaining its tier groups from the
/// capacities — a reference that never takes the single-tier shortcut.
void expect_mixed_allocation(const MixedStar& star, RateAllocator& alloc,
                             const std::vector<SimFlow*>& active,
                             const std::vector<std::vector<std::uint64_t>>&
                                 components) {
  std::vector<SimFlow> clones;
  for (const SimFlow* f : active) clones.push_back(*f);
  std::vector<SimFlow*> clone_ptrs;
  for (SimFlow& f : clones) clone_ptrs.push_back(&f);
  std::vector<RateChange> want_changed;
  allocate_rates(star.topo, star.caps, clone_ptrs, &want_changed);

  std::vector<SimFlow> scanned = clones;
  test::ScanScratch scan(star.topo.link_count());
  for (const std::vector<std::uint64_t>& ids : components) {
    std::vector<SimFlow*> comp;
    for (SimFlow& f : scanned)
      if (std::find(ids.begin(), ids.end(), f.id.value()) != ids.end())
        comp.push_back(&f);
    std::sort(comp.begin(), comp.end(), [](const SimFlow* a, const SimFlow* b) {
      if (a->tier != b->tier) return a->tier < b->tier;
      return a->id < b->id;
    });
    std::vector<Rate> residual = star.caps;
    std::size_t i = 0;
    while (i < comp.size()) {
      const std::size_t start = i;
      while (i < comp.size() && comp[i]->tier == comp[start]->tier) ++i;
      test::scan_waterfill_group(comp.data() + start, i - start,
                                 residual.data(), scan);
    }
  }

  std::vector<RateChange> got_changed;
  alloc.allocate(star.caps, active, &got_changed, /*profiler=*/nullptr);

  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_EQ(bits(active[i]->rate), bits(clones[i].rate))
        << "flow " << active[i]->id << " vs allocate_rates";
    EXPECT_EQ(bits(active[i]->rate), bits(scanned[i].rate))
        << "flow " << active[i]->id << " vs the scan kernel";
  }
  ASSERT_EQ(got_changed.size(), want_changed.size());
  for (std::size_t i = 0; i < got_changed.size(); ++i) {
    EXPECT_EQ(got_changed[i].flow->id, want_changed[i].flow->id) << i;
    EXPECT_EQ(bits(got_changed[i].old_rate), bits(want_changed[i].old_rate))
        << i;
  }
}

TEST(AllocatorDifferentialMixedTiers, OneAllocationSolvesBothKinds) {
  // Five components in one allocation:
  //   A (single tier): 0 and 1 share l0, 1 also crosses l1 (30).
  //   B (three tiers): tier 0 drains l3, tier 1 gets l2's remainder and
  //     l4's, tier 2 what l4 has left.
  //   C (single tier): 5 crosses the dead l5 (capacity 0) and l6; 6 takes
  //     the rest of l6.
  //   D (single flow): 7 alone on l7.
  //   E (two tiers): tier 0 saturates l8, so tier 1 gets 0 there.
  MixedStar star({100, 30, 80, 40, 60, 0, 90, 50, 70, 70});
  const auto& l = star.l;
  std::vector<SimFlow> flows = {
      tiered_flow(0, {l[0]}, 0, 1.0),
      tiered_flow(1, {l[0], l[1]}, 0, 2.0),
      tiered_flow(2, {l[2], l[3]}, 0, 1.0),
      tiered_flow(3, {l[2], l[4]}, 1, 1.0),
      tiered_flow(4, {l[4]}, 2, 3.0),
      tiered_flow(5, {l[5], l[6]}, 1, 1.0),
      tiered_flow(6, {l[6]}, 1, 1.0),
      tiered_flow(7, {l[7]}, 4, 0.5),
      tiered_flow(8, {l[8]}, 0, 1.0),
      tiered_flow(9, {l[8], l[9]}, 1, 1.0),
      tiered_flow(10, {l[9]}, 1, 2.0),
  };
  const std::vector<std::vector<std::uint64_t>> components = {
      {0, 1}, {2, 3, 4}, {5, 6}, {7}, {8, 9, 10}};
  std::vector<SimFlow*> active;
  RateAllocator alloc;
  alloc.reset(&star.topo, 16);
  for (SimFlow& f : flows) {
    active.push_back(&f);
    alloc.add_flow(&f);
  }
  expect_mixed_allocation(star, alloc, active, components);
  EXPECT_EQ(alloc.stats().components_solved, 5u);
  EXPECT_EQ(flows[5].rate, 0.0);
  EXPECT_EQ(flows[6].rate, 90.0);
  EXPECT_EQ(flows[9].rate, 0.0);

  // C becomes multi-tier and B single-tier in the same allocation: the
  // kinds swap, and A, D and E stay cached.
  flows[6].tier = 0;
  alloc.touch_flow(&flows[6]);
  flows[3].tier = 0;
  flows[4].tier = 0;
  alloc.touch_flow(&flows[3]);
  alloc.touch_flow(&flows[4]);
  expect_mixed_allocation(star, alloc, active, components);
  EXPECT_EQ(alloc.stats().components_solved, 7u);
  EXPECT_EQ(flows[5].rate, 0.0);
}

TEST(AllocatorDifferentialMixedTiers, SingleTierLeavesCarriedResidualAlone) {
  // A single-tier component reads capacities directly: the carried
  // LinkId residual stays untouched. A multi-tier one fills it and clears
  // its bookkeeping again.
  MixedStar star({100, 0, 50});
  const auto& l = star.l;
  WaterfillScratch scratch;
  std::vector<SimFlow> one = {tiered_flow(0, {l[0], l[1]}, 3, 1.0),
                              tiered_flow(1, {l[0], l[2]}, 3, 1.0)};
  std::vector<SimFlow*> ptrs = {&one[0], &one[1]};
  solve_component(star.topo, ptrs.data(), ptrs.size(), star.caps, scratch,
                  nullptr);
  EXPECT_EQ(one[0].rate, 0.0);
  EXPECT_EQ(one[1].rate, 50.0);
  for (Rate r : scratch.residual) EXPECT_EQ(bits(r), bits(0.0));
  EXPECT_TRUE(scratch.residual_links.empty());

  one[1].tier = 4;
  solve_component(star.topo, ptrs.data(), ptrs.size(), star.caps, scratch,
                  nullptr);
  EXPECT_EQ(one[1].rate, 50.0);
  EXPECT_EQ(scratch.residual[l[2].value()], 0.0);
  EXPECT_EQ(scratch.residual[l[0].value()], 50.0);
  EXPECT_TRUE(scratch.residual_links.empty());
  for (char init : scratch.residual_init) EXPECT_EQ(init, 0);
}

// ------------------------------------------ one-walk component discovery ---

/// AllocStats movement across one allocation.
struct StatsDelta {
  std::uint64_t flows_solved, components_solved, dirty_links,
      waterfill_rounds, component_samples, empty_components;
};

StatsDelta stats_delta(const AllocStats& before, const AllocStats& after) {
  return {after.flows_solved - before.flows_solved,
          after.components_solved - before.components_solved,
          after.dirty_links - before.dirty_links,
          after.waterfill_rounds - before.waterfill_rounds,
          after.component_flows.total() - before.component_flows.total(),
          after.component_flows.zeros() - before.component_flows.zeros()};
}

TEST(AllocatorDifferentialDiscovery, ThreeSeedsInOneComponentSolveItOnce) {
  // Component X = {0, 1, 2} chained over l0-l1-l2; Y = {3, 4} on l3-l4.
  MixedStar star({100, 60, 80, 50, 70});
  const auto& l = star.l;
  std::vector<SimFlow> flows = {
      tiered_flow(0, {l[0], l[1]}, 0, 1.0),
      tiered_flow(1, {l[1], l[2]}, 0, 2.0),
      tiered_flow(2, {l[2]}, 1, 1.0),
      tiered_flow(3, {l[3]}, 0, 1.0),
      tiered_flow(4, {l[3], l[4]}, 0, 1.0),
      tiered_flow(5, {l[0]}, 0, 1.0),
  };
  std::vector<SimFlow*> active;
  RateAllocator alloc;
  alloc.reset(&star.topo, 8);
  for (std::size_t i = 0; i < 5; ++i) {
    active.push_back(&flows[i]);
    alloc.add_flow(&flows[i]);
  }
  expect_mixed_allocation(star, alloc, active, {{0, 1, 2}, {3, 4}});

  // Three seeds, all in X: an arrival on l0, a capacity change on l2 and
  // a priority change on flow 1 (l1, l2).
  const AllocStats before = alloc.stats();
  active.push_back(&flows[5]);
  alloc.add_flow(&flows[5]);
  star.caps[2] = 40;
  alloc.dirty_link(l[2]);
  flows[1].weight = 0.5;
  alloc.touch_flow(&flows[1]);
  expect_mixed_allocation(star, alloc, active, {{0, 1, 2, 5}, {3, 4}});
  const StatsDelta d = stats_delta(before, alloc.stats());
  EXPECT_EQ(d.components_solved, 1u) << "X must be solved exactly once";
  EXPECT_EQ(d.flows_solved, 4u) << "X's size; Y stays cached";
  EXPECT_EQ(d.dirty_links, 3u) << "l0, l1, l2";
  EXPECT_EQ(d.component_samples, 1u);
  EXPECT_EQ(d.empty_components, 0u);
}

TEST(AllocatorDifferentialDiscovery, EmptiedAndIdleSeedsSolveNothing) {
  MixedStar star({100, 60, 80, 50});
  const auto& l = star.l;
  std::vector<SimFlow> flows = {tiered_flow(0, {l[0], l[1]}, 0, 1.0),
                                tiered_flow(1, {l[2]}, 0, 1.0)};
  std::vector<SimFlow*> active = {&flows[0], &flows[1]};
  RateAllocator alloc;
  alloc.reset(&star.topo, 4);
  for (SimFlow* f : active) alloc.add_flow(f);
  expect_mixed_allocation(star, alloc, active, {{0}, {1}});

  // Flow 0 leaves l0 and l1 empty; l3, which no flow crosses, fails.
  const AllocStats before = alloc.stats();
  alloc.remove_flow(&flows[0]);
  active.erase(active.begin());
  star.caps[3] = 0;
  alloc.dirty_link(l[3]);
  expect_mixed_allocation(star, alloc, active, {{1}});
  const StatsDelta d = stats_delta(before, alloc.stats());
  EXPECT_EQ(d.components_solved, 0u) << "an empty seed is no component";
  EXPECT_EQ(d.flows_solved, 0u);
  EXPECT_EQ(d.waterfill_rounds, 0u);
  EXPECT_EQ(d.component_samples, 0u) << "no kernel call with n = 0";
  EXPECT_EQ(d.empty_components, 0u);
  EXPECT_EQ(d.dirty_links, 3u) << "l0, l1, l3";
  EXPECT_EQ(flows[1].rate, 80.0);
}

TEST(AllocatorDifferentialDiscovery, ComponentsSeededInReverseIdOrder) {
  // A = {0, 1} on l0-l1, B = {2, 3} on l2-l3. B is seeded first, so its
  // slice precedes A's; the changed list must still follow active order.
  MixedStar star({100, 60, 80, 50});
  const auto& l = star.l;
  std::vector<SimFlow> flows = {
      tiered_flow(0, {l[0], l[1]}, 0, 1.0),
      tiered_flow(1, {l[1]}, 0, 1.0),
      tiered_flow(2, {l[2], l[3]}, 0, 1.0),
      tiered_flow(3, {l[3]}, 0, 3.0),
  };
  std::vector<SimFlow*> active;
  RateAllocator alloc;
  alloc.reset(&star.topo, 4);
  for (SimFlow& f : flows) {
    active.push_back(&f);
    alloc.add_flow(&f);
  }
  expect_mixed_allocation(star, alloc, active, {{0, 1}, {2, 3}});
  const std::vector<Rate> old = {flows[0].rate, flows[1].rate,
                                 flows[2].rate, flows[3].rate};

  const AllocStats before = alloc.stats();
  flows[3].weight = 1.0;
  alloc.touch_flow(&flows[3]);
  star.caps[1] = 30;
  alloc.dirty_link(l[1]);
  expect_mixed_allocation(star, alloc, active, {{0, 1}, {2, 3}});
  const StatsDelta d = stats_delta(before, alloc.stats());
  EXPECT_EQ(d.components_solved, 2u);
  EXPECT_EQ(d.flows_solved, 4u);
  EXPECT_EQ(d.dirty_links, 4u);
  EXPECT_EQ(d.empty_components, 0u);
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_NE(flows[i].rate, old[i]) << "flow " << i << " should move";
}

// ------------------------------------------- engine-level work counters ---

// The allocator's work on a small seeded 8-pod trace, per scheduler.
// Rates cannot show a walk that re-solves more than it must (the solve is
// pure, so re-solving a cached component reproduces its bits); these
// counters can. They are recorded values: a change to the walk that
// solves the same components must reproduce them exactly.
TEST(AllocatorWorkCounters, SeededTraceMatchesRecordedCounts) {
  struct Expected {
    const char* scheduler;
    std::uint64_t flows_solved;
    std::uint64_t components_solved;
    std::uint64_t dirty_links;
    std::uint64_t waterfill_rounds;
    std::uint64_t live_link_visits;
  };
  const Expected expected[] = {
      {"pfs", 87637, 703, 224874, 17566, 4081052},
      {"baraat", 87634, 703, 224852, 17569, 4072677},
      {"stream", 95047, 755, 240222, 19407, 4112277},
      {"aalo", 84983, 727, 223617, 16689, 3171983},
      {"gurita", 97580, 1533, 255648, 27333, 7283293},
  };
  ExperimentConfig config = trace_scenario(StructureKind::kMixed, 20, 3);
  config.obs.diagnostics = true;
  std::vector<std::string> names;
  for (const Expected& e : expected) names.emplace_back(e.scheduler);
  const ComparisonResult cmp = compare_schedulers(config, names);
  for (const Expected& e : expected) {
    SCOPED_TRACE(e.scheduler);
    const AllocStats& got = cmp.results.at(e.scheduler).diagnostics.alloc;
    EXPECT_EQ(got.flows_solved, e.flows_solved);
    EXPECT_EQ(got.components_solved, e.components_solved);
    EXPECT_EQ(got.dirty_links, e.dirty_links);
    EXPECT_EQ(got.waterfill_rounds, e.waterfill_rounds);
    EXPECT_EQ(got.live_link_visits, e.live_link_visits);
    EXPECT_EQ(got.component_flows.total(), got.components_solved);
    EXPECT_EQ(got.component_flows.zeros(), 0u);
  }
}

// ---------------------------------------------------- engine-level fuzz ---

/// One engine-level trial: same shape as differential_engine_test.cpp's,
/// plus fault plans (crashes, flaps, stragglers, state loss) on ~30% of
/// trials — the fault paths dirty links and cap rates behind the
/// allocator's back, which is exactly what the frontier must survive.
struct Trial {
  std::unique_ptr<Fabric> fabric;
  std::vector<JobSpec> jobs;
  std::string scheduler;
  Simulator::Config sim_config;
};

Trial draw_trial(std::uint64_t seed) {
  Rng rng(seed);
  Trial trial;

  if (rng.next_double() < 0.5) {
    BigSwitch::Config bs;
    bs.num_hosts = static_cast<int>(rng.uniform_int(8, 32));
    trial.fabric = std::make_unique<BigSwitch>(bs);
  } else {
    FatTree::Config ft;
    ft.k = 4;
    ft.ecmp_salt = rng.next_u64();
    trial.fabric = std::make_unique<FatTree>(ft);
  }

  TraceConfig trace;
  trace.num_jobs = static_cast<int>(rng.uniform_int(3, 10));
  trace.num_hosts = trial.fabric->num_hosts();
  trace.structure = static_cast<StructureKind>(rng.uniform_int(0, 2));
  trace.arrivals = rng.next_double() < 0.5 ? ArrivalPattern::kPoisson
                                           : ArrivalPattern::kBursty;
  trace.mean_interarrival = rng.uniform(1.0, 50.0) * kMillisecond;
  trace.burst_size = static_cast<int>(rng.uniform_int(2, 6));
  trace.max_width = static_cast<int>(rng.uniform_int(2, 16));
  trace.width_pareto_alpha = rng.uniform(0.8, 2.0);
  trace.flow_skew_sigma = rng.uniform(0.2, 1.5);
  trace.stage_skew_sigma = rng.uniform(0.5, 2.0);
  trace.seed = rng.next_u64();
  trial.jobs = generate_trace(trace);

  const std::vector<std::string>& names = scheduler_names();
  trial.scheduler = names[rng.uniform_int(0, names.size() - 1)];

  // Unused draws, in the order a TCP ramp and link-capacity changes once
  // took them, so every seed keeps its fault plan.
  if (rng.next_double() < 0.3) (void)rng.uniform(1.0, 10.0);
  if (rng.next_double() < 0.4) {
    const std::size_t links = trial.fabric->topology().link_count();
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
      (void)rng.uniform(0.0, 0.5);
      (void)rng.uniform_int(0, links - 1);
      (void)rng.uniform(0.2, 1.0);
    }
  }

  // Fault plans on ~30% of trials: crashes abort flows mid-transfer, flaps
  // zero capacities, stragglers cap stored rates below the pure allocation
  // and state loss rewrites priorities in place.
  if (rng.next_double() < 0.3) {
    FaultPlanConfig plan;
    plan.host_crash_rate = rng.uniform(0.0, 4.0);
    plan.link_flap_rate = rng.uniform(0.0, 3.0);
    plan.straggler_rate = rng.uniform(0.0, 4.0);
    plan.state_loss_rate = rng.uniform(0.0, 2.0);
    plan.horizon = 0.5;
    plan.mean_downtime = 0.05;
    trial.sim_config.faults = generate_fault_plan(
        plan, rng.next_u64(), trial.fabric->num_hosts(),
        trial.fabric->topology().link_count());
  }
  return trial;
}

/// One simulator for `trial`, recording into `rec`. With `restore_from`
/// non-empty it is rebuilt from that snapshot, as a restarted process
/// would be.
struct TrialSim {
  std::unique_ptr<Scheduler> sched;
  obs::TraceRecorder rec{obs::TraceRecorder::kDefaultKinds};
  std::unique_ptr<Simulator> sim;

  TrialSim(const Trial& trial, const std::string& restore_from)
      : sched(make_scheduler(trial.scheduler)) {
    Simulator::Config config = trial.sim_config;
    config.trace = &rec;
    sim = std::make_unique<Simulator>(*trial.fabric, *sched, config);
    for (const JobSpec& job : trial.jobs) sim->submit(job);
    if (!restore_from.empty()) {
      snapshot::Reader r(restore_from);
      sim->restore(r);
    }
  }
};

void run_engine_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
  const Trial trial = draw_trial(seed);

  // Uninterrupted: the frontier carries cached component rates throughout.
  TrialSim whole(trial, "");
  SimResults whole_results = whole.sim->run();
  whole_results.trace = whole.rec.take();

  // Split at 8 evenly spaced pauses, each slice run by a fresh simulator
  // restored from the previous one's snapshot. restore() rebuilds the
  // allocator from the active set alone, so every slice starts with a
  // full re-solve; the snapshot carries the trace buffer across.
  constexpr int kPauses = 8;
  std::string bytes;
  for (int k = 1; k <= kPauses; ++k) {
    TrialSim part(trial, bytes);
    (void)part.sim->run_to(whole_results.makespan * k / (kPauses + 1));
    snapshot::Writer w;
    part.sim->checkpoint(w);
    bytes = w.take();
  }
  TrialSim last(trial, bytes);
  SimResults split_results = last.sim->run();
  split_results.trace = last.rec.take();

  expect_same_results(whole_results, split_results);
  expect_same_flows(whole.sim->state(), last.sim->state());
}

// The main gate: 200 randomized traces, each run uninterrupted and split
// by checkpoint/restore into nine simulators whose first allocations are
// full re-solves.
TEST(AllocatorDifferential, FuzzIncrementalEngineAgainstOracleEngine) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_engine_trial(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "allocator differential fuzz diverged at trace seed " << seed
             << "; rerun run_engine_trial(" << seed << ") to debug";
    }
  }
}

}  // namespace
}  // namespace gurita
