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
//     the untouched component was *not* re-solved.
//
//  3. End-to-end fuzz at the engine API: 200 randomized traces (fabrics,
//     schedulers, ramps, disruptions, fault plans) run uninterrupted and
//     again split into nine simulators by checkpoint/restore. Every
//     restore rebuilds the allocator, so the first allocation after it is
//     a full re-solve; results and structured traces must match bitwise.
//
// Failures print the trace seed for standalone reproduction.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "allocator_oracle.h"
#include "common/rng.h"
#include "exp/registry.h"
#include "fault/plan.h"
#include "flowsim/allocator.h"
#include "flowsim/simulator.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"
#include "topology/big_switch.h"
#include "topology/ecmp.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

// ------------------------------------------------ allocator-level fuzz ---

/// Mutable flow population with stable addresses plus the incremental
/// allocator under test. The oracle side is re-derived from scratch on
/// every comparison, so it cannot inherit state to compare against.
struct LockstepHarness {
  const FatTree fabric;
  const EcmpRouter router;
  std::vector<Rate> caps;
  std::deque<SimFlow> store;  // stable addresses across growth
  std::vector<SimFlow*> active;
  std::vector<LinkId> down;  // links a flap zeroed, awaiting restore
  RateAllocator alloc;
  std::uint64_t next_id = 0;

  explicit LockstepHarness(std::uint64_t salt)
      : fabric(FatTree::Config{4, 100.0}), router(fabric, salt) {
    const Topology& topo = fabric.topology();
    caps.resize(topo.link_count());
    for (std::size_t l = 0; l < topo.link_count(); ++l)
      caps[l] = topo.link(LinkId{l}).capacity;
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
    f.path = router.route(f.id, src, dst);
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

  /// In-place scheduler rewrite: no allocator hook on purpose — the
  /// mirror scan must catch it.
  void reprioritize(Rng& rng, std::size_t idx) {
    SimFlow* f = active[idx];
    if (rng.next_double() < 0.5)
      f->tier = static_cast<Tier>((f->tier + 1) % 3);
    else
      f->weight = rng.uniform(0.1, 5.0);
  }

  void change_capacity(Rng& rng) {
    const LinkId l{rng.uniform_int(0, caps.size() - 1)};
    caps[l.value()] =
        fabric.topology().link(l).capacity * rng.uniform(0.05, 1.0);
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
      caps[l.value()] = fabric.topology().link(l).capacity;
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
  const FatTree fabric(FatTree::Config{4, 100.0});
  const EcmpRouter router(fabric, 7);
  std::vector<Rate> caps(fabric.topology().link_count());
  for (std::size_t l = 0; l < caps.size(); ++l)
    caps[l] = fabric.topology().link(LinkId{l}).capacity;

  auto make_population = [&] {
    std::vector<SimFlow> flows;
    for (std::uint64_t i = 0; i < 12; ++i) {
      SimFlow f;
      f.id = FlowId{i};
      f.size = 1000;
      f.remaining = 1000;
      f.path = router.route(f.id, static_cast<int>(i % 16),
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
    extra.path = router.route(extra.id, 0, 8);
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
    const NodeId h0 = topo.add_node(NodeKind::kHost, 0, 0);
    const NodeId s1 = topo.add_node(NodeKind::kEdgeSwitch, 0, 0);
    const NodeId h1 = topo.add_node(NodeKind::kHost, 0, 1);
    const NodeId h2 = topo.add_node(NodeKind::kHost, 0, 2);
    const NodeId s2 = topo.add_node(NodeKind::kEdgeSwitch, 0, 1);
    const NodeId h3 = topo.add_node(NodeKind::kHost, 0, 3);
    up1 = topo.add_link(h0, s1, 90.0);
    down1 = topo.add_link(s1, h1, 90.0);
    up2 = topo.add_link(h2, s2, 100.0);
    down2 = topo.add_link(s2, h3, 100.0);
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

  if (rng.next_double() < 0.3)
    trial.sim_config.tcp_ramp_time = rng.uniform(1.0, 10.0) * kMillisecond;

  if (rng.next_double() < 0.4) {
    const std::size_t links = trial.fabric->topology().link_count();
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
      CapacityChange change;
      change.time = rng.uniform(0.0, 0.5);
      change.link = LinkId{rng.uniform_int(0, links - 1)};
      const Rate nominal =
          trial.fabric->topology().link(change.link).capacity;
      change.new_capacity = nominal * rng.uniform(0.2, 1.0);
      trial.sim_config.disruptions.push_back(change);
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

  trial.sim_config.collect_link_stats = rng.next_double() < 0.25;
  return trial;
}

void expect_identical_runs(const SimResults& inc, const SimResults& ora,
                           const SimState& inc_state,
                           const SimState& ora_state) {
  EXPECT_EQ(inc.events, ora.events);
  EXPECT_EQ(inc.rate_recomputations, ora.rate_recomputations);
  EXPECT_EQ(inc.makespan, ora.makespan);

  ASSERT_EQ(inc.jobs.size(), ora.jobs.size());
  for (std::size_t i = 0; i < inc.jobs.size(); ++i) {
    EXPECT_EQ(inc.jobs[i].id, ora.jobs[i].id) << "job " << i;
    EXPECT_EQ(inc.jobs[i].arrival, ora.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(inc.jobs[i].finish, ora.jobs[i].finish) << "job " << i;
    EXPECT_EQ(inc.jobs[i].total_bytes, ora.jobs[i].total_bytes)
        << "job " << i;
  }

  ASSERT_EQ(inc.coflows.size(), ora.coflows.size());
  for (std::size_t i = 0; i < inc.coflows.size(); ++i) {
    EXPECT_EQ(inc.coflows[i].release, ora.coflows[i].release)
        << "coflow " << i;
    EXPECT_EQ(inc.coflows[i].finish, ora.coflows[i].finish)
        << "coflow " << i;
    EXPECT_EQ(inc.coflows[i].total_bytes, ora.coflows[i].total_bytes)
        << "coflow " << i;
  }

  ASSERT_EQ(inc_state.flow_count(), ora_state.flow_count());
  for (std::size_t i = 0; i < inc_state.flow_count(); ++i) {
    const SimFlow& a = inc_state.flow(FlowId{i});
    const SimFlow& b = ora_state.flow(FlowId{i});
    EXPECT_EQ(a.start_time, b.start_time) << "flow " << i;
    EXPECT_EQ(a.finish_time, b.finish_time) << "flow " << i;
    EXPECT_EQ(a.size, b.size) << "flow " << i;
  }

  ASSERT_EQ(inc.link_bytes.size(), ora.link_bytes.size());
  for (std::size_t i = 0; i < inc.link_bytes.size(); ++i)
    EXPECT_EQ(inc.link_bytes[i], ora.link_bytes[i]) << "link " << i;
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
  const SimResults whole_results = whole.sim->run();

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
  const SimResults split_results = last.sim->run();

  expect_identical_runs(whole_results, split_results, whole.sim->state(),
                        last.sim->state());
  EXPECT_TRUE(whole.rec.take() == last.rec.take())
      << "structured traces diverged";
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
