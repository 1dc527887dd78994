// Unit tests for src/topology: the link capacity table, fat-tree
// construction (the paper's 8-pod / 80-switch / 128-host fabric), path
// validity and ECMP behaviour, and the closed-form link ids held to the
// graph builder they replace (fattree_graph_oracle.h).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "fattree_graph_oracle.h"
#include "topology/fattree.h"
#include "topology/topology.h"

namespace gurita {
namespace {

using test::FatTreeGraph;
using test::NodeKind;

// Asserts `path` is a walk from src's host node to dst's through the
// oracle graph's endpoints.
void expect_walk(const FatTreeGraph& oracle, const std::vector<LinkId>& path,
                 int src, int dst) {
  const test::Graph& g = oracle.graph();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(g.link(path.front()).src, oracle.host(src));
  EXPECT_EQ(g.link(path.back()).dst, oracle.host(dst));
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_EQ(g.link(path[i]).dst, g.link(path[i + 1]).src);
}

// ------------------------------------------------------------------ Table

TEST(Topology, AddLinkNumbersLinksInOrder) {
  Topology topo;
  EXPECT_EQ(topo.add_link(gbps(10)), LinkId{0});
  EXPECT_EQ(topo.add_link(gbps(40)), LinkId{1});
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_DOUBLE_EQ(topo.capacity(LinkId{0}), gbps(10));
  EXPECT_DOUBLE_EQ(topo.capacity(LinkId{1}), gbps(40));
  EXPECT_THROW((void)topo.capacity(LinkId{2}), std::logic_error);
  const Topology uniform(3, 5.0);
  EXPECT_EQ(uniform.link_count(), 3u);
  EXPECT_DOUBLE_EQ(uniform.capacity(LinkId{2}), 5.0);
}

TEST(Topology, RejectsNonPositiveCapacity) {
  Topology topo;
  EXPECT_THROW(topo.add_link(0), std::logic_error);
  EXPECT_THROW(topo.add_link(-1), std::logic_error);
  EXPECT_THROW(Topology(4, 0), std::logic_error);
}

// ---------------------------------------------------------------- FatTree

TEST(FatTree, RejectsOddOrTinyK) {
  EXPECT_THROW(FatTree(FatTree::Config{3, gbps(10)}), std::logic_error);
  EXPECT_THROW(FatTree(FatTree::Config{0, gbps(10)}), std::logic_error);
  EXPECT_THROW(FatTree(FatTree::Config{-2, gbps(10)}), std::logic_error);
}

// k^3/4 hosts must fit the int host index: k = 2048 gives 2^31. The check
// runs before any link is allocated, and must not itself overflow for the
// largest even int.
TEST(FatTree, RejectsHostCountOverflow) {
  for (const int k : {2048, 4096, 2147483646}) {
    try {
      const FatTree ft(FatTree::Config{k, gbps(10)});
      ADD_FAILURE() << "k = " << k << " was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("k = " + std::to_string(k)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FatTree, PaperScaleEightPods) {
  // §V: "8 pods FatTree network topology with 128 servers and 80 switches".
  const FatTree ft(FatTree::Config{8, gbps(10)});
  EXPECT_EQ(ft.num_hosts(), 128);
  EXPECT_EQ(ft.topology().link_count(), 768u);  // 1.5 k^3
  // The counts are the graph's: 32 edge, 32 agg and 16 core switches.
  const FatTreeGraph oracle(8, gbps(10));
  const test::Graph& g = oracle.graph();
  EXPECT_EQ(g.count(NodeKind::kHost), 128u);
  EXPECT_EQ(g.count(NodeKind::kEdgeSwitch), 32u);
  EXPECT_EQ(g.count(NodeKind::kAggSwitch), 32u);
  EXPECT_EQ(g.count(NodeKind::kCoreSwitch), 16u);
  EXPECT_EQ(g.node_count(), 128u + 80u);
}

// The paper's bursty scenario uses k=48: 27,648 servers and 2,880 switches.
// Constructing the full fabric is cheap enough to verify the counts.
TEST(FatTree, PaperScaleFortyEightPods) {
  const FatTree ft(FatTree::Config{48, gbps(10)});
  EXPECT_EQ(ft.num_hosts(), 27648);
  EXPECT_EQ(ft.topology().link_count(), 165888u);
  const FatTreeGraph oracle(48, gbps(10));
  EXPECT_EQ(oracle.graph().node_count(), 27648u + 2880u);
}

struct FatTreeParams {
  int k;
  int hosts;
  int switches;
};

class FatTreeCounts : public ::testing::TestWithParam<FatTreeParams> {};

TEST_P(FatTreeCounts, HostAndSwitchFormulas) {
  const auto p = GetParam();
  const FatTree ft(FatTree::Config{p.k, gbps(10)});
  EXPECT_EQ(ft.num_hosts(), p.hosts);
  const FatTreeGraph oracle(p.k, gbps(10));
  EXPECT_EQ(oracle.graph().node_count(),
            static_cast<std::size_t>(p.hosts + p.switches));
  // Link count: hosts + edge-agg (k * (k/2)^2) + agg-core (k * (k/2)^2),
  // each duplex.
  const std::size_t half = static_cast<std::size_t>(p.k) / 2;
  const std::size_t expected_links =
      2 * (static_cast<std::size_t>(p.hosts) +
           static_cast<std::size_t>(p.k) * half * half * 2);
  EXPECT_EQ(ft.topology().link_count(), expected_links);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FatTreeCounts,
                         ::testing::Values(FatTreeParams{2, 2, 5},
                                           FatTreeParams{4, 16, 20},
                                           FatTreeParams{6, 54, 45},
                                           FatTreeParams{8, 128, 80},
                                           FatTreeParams{16, 1024, 320}));

TEST(FatTree, HostAddressing) {
  const FatTree ft(FatTree::Config{4, gbps(10)});
  // k=4: 4 hosts per pod, 2 per edge switch.
  EXPECT_EQ(ft.pod_of_host(0), 0);
  EXPECT_EQ(ft.pod_of_host(3), 0);
  EXPECT_EQ(ft.pod_of_host(4), 1);
  EXPECT_EQ(ft.pod_of_host(15), 3);
  // Hosts 0 and 1 share an edge switch: up from 0, straight down to 1.
  EXPECT_EQ(ft.path(0, 1, 0, 0), (std::vector<LinkId>{LinkId{0}, LinkId{3}}));
  // Hosts 1 and 2 do not: the path climbs to an aggregation switch.
  EXPECT_EQ(ft.path(1, 2, 0, 0).size(), 4u);
}

TEST(FatTree, HostIndexOutOfRangeThrows) {
  const FatTree ft(FatTree::Config{4, gbps(10)});
  EXPECT_THROW(ft.path(-1, 0, 0, 0), std::logic_error);
  EXPECT_THROW(ft.path(0, 16, 0, 0), std::logic_error);
  EXPECT_THROW(ft.route(FlowId{0}, 16, 0), std::logic_error);
  EXPECT_THROW(ft.pod_of_host(-1), std::logic_error);
  EXPECT_THROW(ft.pod_of_host(16), std::logic_error);
}

TEST(FatTree, PathSameEdgeSwitchHasTwoHops) {
  const FatTree ft(FatTree::Config{4, gbps(10)});
  const auto path = ft.path(0, 1, 0, 0);  // same edge switch
  EXPECT_EQ(path.size(), 2u);
}

TEST(FatTree, PathSamePodHasFourHops) {
  const FatTree ft(FatTree::Config{4, gbps(10)});
  const auto path = ft.path(0, 2, 0, 0);  // same pod, different edge
  EXPECT_EQ(path.size(), 4u);
}

TEST(FatTree, PathCrossPodHasSixHops) {
  const FatTree ft(FatTree::Config{4, gbps(10)});
  const auto path = ft.path(0, 15, 0, 0);
  EXPECT_EQ(path.size(), 6u);
}

TEST(FatTree, PathIsConnected) {
  const FatTree ft(FatTree::Config{8, gbps(10)});
  const FatTreeGraph oracle(8, gbps(10));
  for (const auto& [src, dst] : std::vector<std::pair<int, int>>{
           {0, 1}, {0, 5}, {0, 127}, {17, 93}, {64, 63}}) {
    for (std::uint64_t choice = 0; choice < 4; ++choice)
      expect_walk(oracle, ft.path(src, dst, choice, choice * 3 + 1), src, dst);
  }
}

TEST(FatTree, PathBetweenSameHostThrows) {
  const FatTree ft(FatTree::Config{4, gbps(10)});
  EXPECT_THROW(ft.path(3, 3, 0, 0), std::logic_error);
}

TEST(FatTree, PathCountMatchesStructure) {
  const FatTree ft(FatTree::Config{8, gbps(10)});
  // Distinct paths over every (up, core) choice pair.
  const auto path_count = [&](int src, int dst) {
    std::set<std::vector<LinkId>> paths;
    for (std::uint64_t up = 0; up < 4; ++up)
      for (std::uint64_t core = 0; core < 4; ++core)
        paths.insert(ft.path(src, dst, up, core));
    return paths.size();
  };
  EXPECT_EQ(path_count(0, 1), 1u);       // same edge
  EXPECT_EQ(path_count(0, 5), 4u);       // same pod: k/2 agg choices
  EXPECT_EQ(path_count(0, 127), 16u);    // cross pod: (k/2)^2
}

TEST(FatTree, DistinctChoicesGiveDistinctCrossPodPaths) {
  const FatTree ft(FatTree::Config{8, gbps(10)});
  std::set<std::vector<std::uint64_t>> unique_paths;
  for (std::uint64_t up = 0; up < 4; ++up) {
    for (std::uint64_t core = 0; core < 4; ++core) {
      const auto path = ft.path(0, 127, up, core);
      std::vector<std::uint64_t> key;
      for (LinkId l : path) key.push_back(l.value());
      unique_paths.insert(key);
    }
  }
  EXPECT_EQ(unique_paths.size(), 16u);
}

TEST(FatTree, CoreGroupWiring) {
  // Core group g must connect to agg switch g of every pod: a cross-pod
  // path with up choice g climbs through agg g of the source pod to core
  // (g, m) and comes down through agg g of the destination pod.
  const FatTree ft(FatTree::Config{4, gbps(10)});
  const FatTreeGraph oracle(4, gbps(10));
  const test::Graph& g = oracle.graph();
  for (int group = 0; group < 2; ++group) {
    for (int m = 0; m < 2; ++m) {
      for (int pod = 0; pod < 4; ++pod) {
        const int other = (pod + 1) % 4;
        const auto path = ft.path(pod * 4, other * 4, group, m);
        ASSERT_EQ(path.size(), 6u);
        const test::Link& up = g.link(path[2]);
        const test::Link& down = g.link(path[3]);
        EXPECT_EQ(up.src, oracle.agg_switch(pod, group));
        EXPECT_EQ(up.dst, oracle.core_switch(group, m));
        EXPECT_EQ(down.src, oracle.core_switch(group, m));
        EXPECT_EQ(down.dst, oracle.agg_switch(other, group));
      }
    }
  }
}

// ------------------------------------------------------------------- ECMP

TEST(Ecmp, RouteIsStableForAFlow) {
  const FatTree ft(FatTree::Config{8, gbps(10)});
  const auto p1 = ft.route(FlowId{7}, 3, 99);
  const auto p2 = ft.route(FlowId{7}, 3, 99);
  EXPECT_EQ(p1, p2);
}

TEST(Ecmp, DifferentFlowsSpreadAcrossPaths) {
  const FatTree ft(FatTree::Config{8, gbps(10)});
  std::set<std::vector<std::uint64_t>> unique_paths;
  for (std::uint64_t f = 0; f < 200; ++f) {
    const auto path = ft.route(FlowId{f}, 0, 127);
    std::vector<std::uint64_t> key;
    for (LinkId l : path) key.push_back(l.value());
    unique_paths.insert(key);
  }
  // 16 equal-cost paths exist; a healthy hash should find most of them.
  EXPECT_GE(unique_paths.size(), 12u);
}

TEST(Ecmp, SaltChangesPathSelection) {
  const FatTree a(FatTree::Config{8, gbps(10), 1});
  const FatTree b(FatTree::Config{8, gbps(10), 2});
  int differing = 0;
  for (std::uint64_t f = 0; f < 50; ++f) {
    if (a.route(FlowId{f}, 0, 127) != b.route(FlowId{f}, 0, 127)) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST(Ecmp, RoutedPathsAreValid) {
  const FatTree ft(FatTree::Config{4, gbps(10), 3});
  const FatTreeGraph oracle(4, gbps(10));
  for (std::uint64_t f = 0; f < 64; ++f) {
    const int src = static_cast<int>(f % 16);
    const int dst = static_cast<int>((f * 7 + 1) % 16);
    if (src == dst) continue;
    expect_walk(oracle, ft.route(FlowId{f}, src, dst), src, dst);
  }
}

// -------------------------------------------------- Closed form vs. graph

class FatTreeOracle : public ::testing::TestWithParam<int> {};

// Every (src, dst, up, core) with up, core < k/2: the closed-form ids are
// the graph builder's, and each path walks from src to dst.
TEST_P(FatTreeOracle, EveryPathMatchesTheGraph) {
  const int k = GetParam();
  const Rate cap = gbps(10);
  const FatTree ft(FatTree::Config{k, cap});
  const FatTreeGraph oracle(k, cap);
  const test::Graph& g = oracle.graph();
  ASSERT_EQ(ft.num_hosts(), oracle.num_hosts());
  ASSERT_EQ(ft.topology().link_count(), g.link_count());
  for (std::uint64_t l = 0; l < g.link_count(); ++l)
    ASSERT_EQ(ft.topology().capacity(LinkId{l}), g.link(LinkId{l}).capacity);
  const int n = k / 2;
  for (int src = 0; src < ft.num_hosts(); ++src) {
    for (int dst = 0; dst < ft.num_hosts(); ++dst) {
      if (src == dst) continue;
      for (int up = 0; up < n; ++up) {
        for (int core = 0; core < n; ++core) {
          const auto path = ft.path(src, dst, up, core);
          ASSERT_EQ(path, oracle.path(src, dst, up, core))
              << "k=" << k << " " << src << "->" << dst << " up=" << up
              << " core=" << core;
          expect_walk(oracle, path, src, dst);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pods, FatTreeOracle, ::testing::Values(2, 4, 6, 8));

// The paper's 48-pod fabric: seeded ECMP routes under a nonzero salt match
// the graph's path under the same hash.
TEST(FatTreeOracleEcmp, FortyEightPodRoutesMatchTheGraph) {
  const std::uint64_t salt = 0x5eed5a17ULL;
  const FatTree ft(FatTree::Config{48, gbps(10), salt});
  const FatTreeGraph oracle(48, gbps(10), salt);
  Rng rng(2019);
  const std::uint64_t last_host = static_cast<std::uint64_t>(ft.num_hosts()) - 1;
  for (int i = 0; i < 100000; ++i) {
    const FlowId flow{rng.next_u64()};
    const int src = static_cast<int>(rng.uniform_int(0, last_host));
    const int dst = static_cast<int>(rng.uniform_int(0, last_host));
    if (src == dst) continue;
    ASSERT_EQ(ft.route(flow, src, dst), oracle.route(flow, src, dst))
        << "flow " << flow << " " << src << "->" << dst;
  }
}

}  // namespace
}  // namespace gurita
