// Differential tests: the shipped position-space water-filling kernel
// against the LinkId-indexed scan kernel kept in waterfill_scan_oracle.h.
// Rates and post-group residuals must agree bit for bit — on randomized
// multi-tier groups over fat-tree ECMP paths and on the cases built to sit
// exactly on the kernel's comparison edges: exact ties, shares within the
// 1e-12 tolerance, residuals drained below 1e-9 by lower tiers, failed
// (zero-capacity) links and weight ratios of 1e±12.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "allocator_oracle.h"
#include "common/rng.h"
#include "flowsim/allocator.h"
#include "topology/fattree.h"
#include "waterfill_scan_oracle.h"

namespace gurita {
namespace {

SimFlow make_flow(std::uint64_t id, std::vector<LinkId> path, Tier tier,
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One differential case: a flow population plus per-link capacities.
struct Case {
  std::vector<SimFlow> flows;
  std::vector<Rate> capacities;
};

/// The population sorted by (tier, id), as solve_component requires.
std::vector<SimFlow*> sorted_ptrs(std::vector<SimFlow>& flows) {
  std::vector<SimFlow*> ptrs;
  for (SimFlow& f : flows) ptrs.push_back(&f);
  std::sort(ptrs.begin(), ptrs.end(), [](const SimFlow* a, const SimFlow* b) {
    if (a->tier != b->tier) return a->tier < b->tier;
    return a->id < b->id;
  });
  return ptrs;
}

/// Tier groups of a (tier, id)-sorted population, as [start, end) ranges.
std::vector<std::pair<std::size_t, std::size_t>> tier_groups(
    const std::vector<SimFlow*>& sorted) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::size_t start = i;
    while (i < sorted.size() && sorted[i]->tier == sorted[start]->tier) ++i;
    groups.emplace_back(start, i);
  }
  return groups;
}

/// Runs `c` tier group by tier group through both kernels, each consuming
/// its own residual vector, and asserts bitwise agreement of every rate and
/// every link's residual after every group.
void expect_groups_bitwise(const Topology& topo, Case c) {
  std::vector<SimFlow> mine = c.flows;
  std::vector<SimFlow> theirs = c.flows;
  std::vector<SimFlow*> mine_sorted = sorted_ptrs(mine);
  std::vector<SimFlow*> theirs_sorted = sorted_ptrs(theirs);
  std::vector<Rate> mine_residual = c.capacities;
  std::vector<Rate> theirs_residual = c.capacities;
  test::ScanScratch scan(topo.link_count());
  for (const auto& [start, end] : tier_groups(mine_sorted)) {
    std::vector<SimFlow*> group(mine_sorted.begin() + start,
                                mine_sorted.begin() + end);
    waterfill(topo, group, mine_residual);
    test::scan_waterfill_group(theirs_sorted.data() + start, end - start,
                               theirs_residual.data(), scan);
    for (std::size_t i = start; i < end; ++i)
      ASSERT_EQ(bits(mine_sorted[i]->rate), bits(theirs_sorted[i]->rate))
          << "flow " << mine_sorted[i]->id << " tier "
          << mine_sorted[i]->tier << ": " << mine_sorted[i]->rate << " vs "
          << theirs_sorted[i]->rate;
    for (std::size_t l = 0; l < topo.link_count(); ++l)
      ASSERT_EQ(bits(mine_residual[l]), bits(theirs_residual[l]))
          << "link " << l << " after tier " << mine_sorted[start]->tier;
  }
}

/// Solves `c` as one component through solve_component with a caller-owned
/// scratch (so reuse across cases is exercised) and asserts its rates equal
/// the oracle's tier-by-tier chaining bit for bit.
void expect_component_bitwise(const Topology& topo, Case c,
                              WaterfillScratch& scratch) {
  std::vector<SimFlow> mine = c.flows;
  std::vector<SimFlow> theirs = c.flows;
  std::vector<SimFlow*> mine_sorted = sorted_ptrs(mine);
  std::vector<SimFlow*> theirs_sorted = sorted_ptrs(theirs);
  AllocStats stats;
  solve_component(topo, mine_sorted.data(), mine_sorted.size(), c.capacities,
                  scratch, &stats);
  std::vector<Rate> residual = c.capacities;
  test::ScanScratch scan(topo.link_count());
  for (const auto& [start, end] : tier_groups(theirs_sorted))
    test::scan_waterfill_group(theirs_sorted.data() + start, end - start,
                               residual.data(), scan);
  for (std::size_t i = 0; i < mine.size(); ++i)
    ASSERT_EQ(bits(mine[i].rate), bits(theirs[i].rate)) << "flow " << i;
  if (!mine.empty()) {
    EXPECT_GE(stats.waterfill_rounds, tier_groups(mine_sorted).size());
    EXPECT_GE(stats.live_link_visits, stats.waterfill_rounds);
  }
}

std::vector<Rate> nominal_capacities(const Topology& topo) {
  std::vector<Rate> caps(topo.link_count());
  for (std::size_t l = 0; l < caps.size(); ++l)
    caps[l] = topo.capacity(LinkId{l});
  return caps;
}

/// Random multi-tier population on ECMP paths of a k-ary fat-tree. Weights
/// mix ordinary values with exact repeats and extreme ratios; a few links
/// are failed (capacity 0) or perturbed.
Case random_fattree_case(const FatTree& ft, std::uint64_t seed) {
  Rng rng(seed);
  // The same fabric, ECMP-salted by the seed.
  const FatTree salted(
      FatTree::Config{ft.k(), ft.topology().capacity(LinkId{0}), seed});
  const int hosts = ft.num_hosts();
  Case c;
  c.capacities = nominal_capacities(ft.topology());
  for (Rate& cap : c.capacities) {
    const std::uint64_t roll = rng.uniform_int(0, 39);
    if (roll == 0) cap = 0;                          // failed link
    else if (roll == 1) cap *= rng.uniform(0.1, 1.0);  // degraded link
  }
  static constexpr double kWeights[] = {1.0, 1.0, 2.0, 0.5, 3.0,
                                        1e-9, 1e12, 1e-12};
  const int n = 2 + static_cast<int>(rng.uniform_int(0, 120));
  const int tiers = 1 + static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < n; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, hosts - 1));
    int dst = static_cast<int>(rng.uniform_int(0, hosts - 1));
    if (dst == src) dst = (dst + 1) % hosts;
    const FlowId id{static_cast<std::uint64_t>(i)};
    const double weight = rng.uniform_int(0, 2) == 0
                              ? rng.uniform(0.1, 5.0)
                              : kWeights[rng.uniform_int(0, 7)];
    c.flows.push_back(make_flow(id.value(), salted.route(id, src, dst),
                                static_cast<Tier>(rng.uniform_int(0, tiers - 1)),
                                weight));
  }
  return c;
}

/// Random paths that are arbitrary link sequences — not routes, and free to
/// repeat a link — over a small link set, so links carry many flows and
/// flows cross many shared links.
Case random_link_soup_case(const Topology& topo, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t links = std::min<std::uint64_t>(topo.link_count(), 24);
  Case c;
  c.capacities = nominal_capacities(topo);
  for (std::uint64_t l = 0; l < links; ++l) {
    const std::uint64_t roll = rng.uniform_int(0, 9);
    if (roll == 0) c.capacities[l] = 0;
    else if (roll < 4) c.capacities[l] = rng.uniform(1.0, 200.0);
  }
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 60));
  for (int i = 0; i < n; ++i) {
    std::vector<LinkId> path;
    const int len = 1 + static_cast<int>(rng.uniform_int(0, 6));
    for (int k = 0; k < len; ++k)
      path.push_back(LinkId{rng.uniform_int(0, links - 1)});
    c.flows.push_back(make_flow(static_cast<std::uint64_t>(i),
                                std::move(path),
                                static_cast<Tier>(rng.uniform_int(0, 2)),
                                rng.uniform_int(0, 3) == 0
                                    ? 1.0
                                    : rng.uniform(0.01, 10.0)));
  }
  return c;
}

class WaterfillDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WaterfillDifferential, RandomFatTreeGroupsBitwise) {
  const FatTree ft(FatTree::Config{GetParam() % 2 == 0 ? 4 : 6, 100.0});
  for (std::uint64_t r = 0; r < 4; ++r) {
    SCOPED_TRACE(r);
    expect_groups_bitwise(ft.topology(),
                          random_fattree_case(ft, GetParam() * 4 + r));
  }
}

TEST_P(WaterfillDifferential, RandomLinkSoupGroupsBitwise) {
  const FatTree ft(FatTree::Config{4, 100.0});
  for (std::uint64_t r = 0; r < 4; ++r) {
    SCOPED_TRACE(r);
    expect_groups_bitwise(ft.topology(),
                          random_link_soup_case(ft.topology(),
                                                GetParam() * 4 + r));
  }
}

TEST_P(WaterfillDifferential, ReusedScratchComponentsBitwise) {
  // One scratch across components of different sizes and link sets: the
  // position map must come back all-sentinel after every group.
  const FatTree ft(FatTree::Config{4, 100.0});
  WaterfillScratch scratch;
  for (std::uint64_t r = 0; r < 6; ++r) {
    SCOPED_TRACE(r);
    const std::uint64_t seed = GetParam() * 6 + r;
    expect_component_bitwise(
        ft.topology(),
        r % 2 == 0 ? random_fattree_case(ft, seed)
                   : random_link_soup_case(ft.topology(), seed),
        scratch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterfillDifferential,
                         ::testing::Range<std::uint64_t>(0, 50));

// --- adversarial cases ------------------------------------------------------

/// A star of `links` parallel host->switch links with the given capacities;
/// flows choose which of them they cross.
struct Star {
  Topology topo;
  std::vector<LinkId> links;

  explicit Star(const std::vector<Rate>& caps) {
    for (std::size_t i = 0; i < caps.size(); ++i) {
      links.push_back(topo.add_link(caps[i]));
    }
  }
  Case make_case() const { return Case{{}, nominal_capacities(topo)}; }
};

TEST(WaterfillDifferentialEdges, ExactTies) {
  // Every link offers exactly the same share, so every round's minimum is
  // hit by several links at once.
  Star star(std::vector<Rate>(6, 60.0));
  Case c = star.make_case();
  std::uint64_t id = 0;
  for (std::size_t a = 0; a < star.links.size(); ++a)
    for (std::size_t b = a + 1; b < star.links.size(); ++b)
      c.flows.push_back(
          make_flow(id++, {star.links[a], star.links[b]}, 0, 1.0));
  expect_groups_bitwise(star.topo, c);
  WaterfillScratch scratch;
  expect_component_bitwise(star.topo, c, scratch);

  // The same on a whole fat-tree: a symmetric permutation of equal flows.
  const FatTree ft(FatTree::Config{4, 100.0, 1});
  Case sym{{}, nominal_capacities(ft.topology())};
  for (int h = 0; h < ft.num_hosts(); ++h) {
    const FlowId fid{static_cast<std::uint64_t>(h)};
    sym.flows.push_back(make_flow(
        fid.value(), ft.route(fid, h, (h + 4) % ft.num_hosts()), 0, 1.0));
  }
  expect_groups_bitwise(ft.topology(), sym);
}

TEST(WaterfillDifferentialEdges, SharesWithinTolerance) {
  // Link shares straddling the (1 + 1e-12) bottleneck tolerance: inside it
  // (frozen together with the minimum), exactly on the scaled bound, and
  // just outside it (a separate, later round).
  const double base = 100.0;
  Star star({base, base * (1 + 5e-13), base * (1 + 1e-12), base * (1 + 2e-12),
             base * (1 + 1e-11), std::nextafter(base, 200.0)});
  Case c = star.make_case();
  std::uint64_t id = 0;
  for (std::size_t a = 0; a < star.links.size(); ++a) {
    c.flows.push_back(make_flow(id++, {star.links[a]}, 0, 1.0));
    c.flows.push_back(make_flow(
        id++, {star.links[a], star.links[(a + 1) % star.links.size()]}, 0,
        1.0));
  }
  expect_groups_bitwise(star.topo, c);
  WaterfillScratch scratch;
  expect_component_bitwise(star.topo, c, scratch);
}

TEST(WaterfillDifferentialEdges, ResidualsDrainedByLowerTiers) {
  // Tier 0 leaves dust on links 0 and 1: two flows each are held to 25 by
  // links 2 and 3 (capacity 50), so link 0 (50 + 5e-10) keeps about 5e-10,
  // below the 1e-9 floor, and link 1 (50 + 2e-9) about 2e-9, just above
  // it; links 2 and 3 drain to 0. Tier 1 then meets link 0 with a large
  // share (its flow weighs 1e-12) but a negligible residual — the clause
  // that makes it a bottleneck anyway — next to a zero-share link 3.
  Star star({50.0 + 5e-10, 50.0 + 2e-9, 50.0, 50.0, 80.0});
  Case c = star.make_case();
  c.flows.push_back(make_flow(0, {star.links[0], star.links[2]}, 0, 1.0));
  c.flows.push_back(make_flow(1, {star.links[0], star.links[2]}, 0, 1.0));
  c.flows.push_back(make_flow(2, {star.links[1], star.links[3]}, 0, 1.0));
  c.flows.push_back(make_flow(3, {star.links[1], star.links[3]}, 0, 1.0));
  c.flows.push_back(make_flow(4, {star.links[0], star.links[4]}, 1, 1e-12));
  c.flows.push_back(make_flow(5, {star.links[1], star.links[4]}, 1, 1.0));
  c.flows.push_back(make_flow(6, {star.links[3], star.links[4]}, 1, 2.0));
  c.flows.push_back(make_flow(7, {star.links[4]}, 1, 1.0));
  c.flows.push_back(make_flow(8, {star.links[0]}, 2, 1e12));
  {
    std::vector<SimFlow> tier0(c.flows.begin(), c.flows.begin() + 4);
    std::vector<SimFlow*> group = sorted_ptrs(tier0);
    std::vector<Rate> residual = c.capacities;
    waterfill(star.topo, group, residual);
    EXPECT_GT(residual[0], 0.0);
    EXPECT_LE(residual[0], 1e-9);
    EXPECT_GT(residual[1], 1e-9);
    EXPECT_EQ(residual[3], 0.0);
  }
  expect_groups_bitwise(star.topo, c);
  WaterfillScratch scratch;
  expect_component_bitwise(star.topo, c, scratch);

  // Randomized variant: tier-0 fills on random link sets followed by
  // higher-tier groups over whatever dust they left.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Star dust(std::vector<Rate>(8, 10.0));
    Case d = dust.make_case();
    for (Rate& cap : d.capacities) cap += rng.uniform(0, 2e-9);
    for (std::uint64_t i = 0; i < 24; ++i) {
      std::vector<LinkId> path;
      const int len = 1 + static_cast<int>(rng.uniform_int(0, 3));
      for (int k = 0; k < len; ++k)
        path.push_back(dust.links[rng.uniform_int(0, 7)]);
      d.flows.push_back(make_flow(i, std::move(path),
                                  static_cast<Tier>(i < 12 ? 0 : 1 + i % 2),
                                  i % 3 == 0 ? 1e-12 : 1.0));
    }
    expect_groups_bitwise(dust.topo, d);
    expect_component_bitwise(dust.topo, d, scratch);
  }
}

TEST(WaterfillDifferentialEdges, FailedLinks) {
  // Zero-capacity links (a failure overrides the nominal capacity): their
  // flows freeze at rate 0 in the first round, and flows sharing other
  // links with them still fill the rest.
  Star star({10.0, 100.0, 10.0, 40.0});
  Case c = star.make_case();
  c.capacities[0] = 0;
  c.capacities[2] = 0;
  c.flows.push_back(make_flow(0, {star.links[0], star.links[1]}, 0, 1.0));
  c.flows.push_back(make_flow(1, {star.links[1]}, 0, 1.0));
  c.flows.push_back(make_flow(2, {star.links[2]}, 0, 3.0));
  c.flows.push_back(make_flow(3, {star.links[1], star.links[3]}, 1, 1.0));
  c.flows.push_back(make_flow(4, {star.links[3], star.links[2]}, 1, 1.0));
  c.flows.push_back(make_flow(5, {star.links[3]}, 2, 1.0));
  expect_groups_bitwise(star.topo, c);
  WaterfillScratch scratch;
  expect_component_bitwise(star.topo, c, scratch);
}

TEST(WaterfillDifferentialEdges, ExtremeWeightRatios) {
  // Weights 1e-12 and 1e12 on shared links: shares span 24 orders of
  // magnitude and freezing the heavy flow leaves weight residue behind.
  Star star({100.0, 100.0, 1.0, 1e-6});
  Case c = star.make_case();
  std::uint64_t id = 0;
  for (double w : {1e12, 1e-12, 1.0, 1e12, 1e-12}) {
    c.flows.push_back(make_flow(id++, {star.links[0], star.links[1]}, 0, w));
    c.flows.push_back(make_flow(id++, {star.links[1], star.links[2]}, 0, w));
    c.flows.push_back(make_flow(id++, {star.links[3], star.links[0]}, 0, w));
  }
  c.flows.push_back(make_flow(id++, {star.links[2]}, 1, 1e-12));
  c.flows.push_back(make_flow(id++, {star.links[0]}, 1, 1e12));
  expect_groups_bitwise(star.topo, c);
  WaterfillScratch scratch;
  expect_component_bitwise(star.topo, c, scratch);
}

TEST(WaterfillDifferentialEdges, RejectedGroupLeavesScratchClean) {
  // A component rejected by validation must leave no residual or link
  // position claimed: the same scratch then solves a valid component
  // exactly as the oracle does.
  const FatTree ft(FatTree::Config{4, 100.0});
  WaterfillScratch scratch;
  Case bad = random_fattree_case(ft, 7);
  bad.flows.back().weight = 0;
  std::vector<SimFlow*> ptrs = sorted_ptrs(bad.flows);
  EXPECT_THROW(solve_component(ft.topology(), ptrs.data(), ptrs.size(),
                               bad.capacities, scratch, nullptr),
               std::logic_error);
  expect_component_bitwise(ft.topology(), random_fattree_case(ft, 7), scratch);
}

TEST(WaterfillCounters, HandComputedRoundsAndVisits) {
  // Links 0..2 with capacities 10, 30, 50; flows {0,1}, {1,2}, {2}.
  // Round 1 scans three links: shares 10/1, 30/2, 50/2, so link 0 is the
  // bottleneck and freezes flow 0 at 10; link 1 rises to 20/1, link 2
  // stays 50/2. Round 2 scans links 1 and 2 (link 0 left the live list):
  // link 1 freezes flow 1 at 20, link 2 rises to 30/1. Round 3 scans
  // link 2 alone and freezes flow 2 at 30.
  Star star({10.0, 30.0, 50.0});
  Case c = star.make_case();
  c.flows.push_back(make_flow(0, {star.links[0], star.links[1]}, 0, 1.0));
  c.flows.push_back(make_flow(1, {star.links[1], star.links[2]}, 0, 1.0));
  c.flows.push_back(make_flow(2, {star.links[2]}, 0, 1.0));
  std::vector<SimFlow*> ptrs = sorted_ptrs(c.flows);
  WaterfillScratch scratch;
  AllocStats stats;
  solve_component(star.topo, ptrs.data(), ptrs.size(), c.capacities, scratch,
                  &stats);
  EXPECT_EQ(c.flows[0].rate, 10.0);
  EXPECT_EQ(c.flows[1].rate, 20.0);
  EXPECT_EQ(c.flows[2].rate, 30.0);
  EXPECT_EQ(stats.waterfill_rounds, 3u);
  EXPECT_EQ(stats.live_link_visits, 3u + 2u + 1u);

  // The counters pool like the others.
  AllocStats pooled;
  pooled.merge(stats);
  pooled.merge(stats);
  EXPECT_EQ(pooled.waterfill_rounds, 6u);
  EXPECT_EQ(pooled.live_link_visits, 12u);
}

TEST(WaterfillCounters, ReportedByBothAllocators) {
  const FatTree ft(FatTree::Config{4, 100.0});
  Case c = random_fattree_case(ft, 3);
  std::vector<SimFlow*> ptrs;
  for (SimFlow& f : c.flows) ptrs.push_back(&f);
  AllocStats oracle;
  allocate_rates(ft.topology(), c.capacities, ptrs, nullptr, &oracle);
  EXPECT_GT(oracle.waterfill_rounds, 0u);
  EXPECT_GE(oracle.live_link_visits, oracle.waterfill_rounds);

  RateAllocator alloc;
  alloc.reset(&ft.topology(), c.flows.size());
  for (SimFlow* f : ptrs) alloc.add_flow(f);
  alloc.allocate(c.capacities, ptrs, nullptr, nullptr);
  // The first incremental allocation re-solves every component, exactly
  // the kernel work the oracle did.
  EXPECT_EQ(alloc.stats().waterfill_rounds, oracle.waterfill_rounds);
  EXPECT_EQ(alloc.stats().live_link_visits, oracle.live_link_visits);
}

}  // namespace
}  // namespace gurita
