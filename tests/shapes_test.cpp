// Unit tests for the job-shape builders (chain, tree, W, inverted-V, ...)
// and the random-DAG generator used by property tests.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "coflow/shapes.h"

namespace gurita::shapes {
namespace {

int count_leaves(const Deps& deps) {
  int leaves = 0;
  for (const auto& d : deps)
    if (d.empty()) ++leaves;
  return leaves;
}

int count_roots(const Deps& deps) {
  std::vector<bool> has_dependent(deps.size(), false);
  for (const auto& d : deps)
    for (int x : d) has_dependent[static_cast<std::size_t>(x)] = true;
  int roots = 0;
  for (std::size_t i = 0; i < deps.size(); ++i)
    if (!has_dependent[i]) ++roots;
  return roots;
}

TEST(Shapes, Single) {
  const Deps d = single();
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(depth_of(d), 1);
}

TEST(Shapes, Chain) {
  const Deps d = chain(5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(depth_of(d), 5);
  EXPECT_EQ(count_leaves(d), 1);
  EXPECT_EQ(count_roots(d), 1);
}

TEST(Shapes, ChainOfOneIsSingle) {
  EXPECT_EQ(chain(1), single());
}

TEST(Shapes, ChainRejectsNonPositive) {
  EXPECT_THROW(chain(0), std::logic_error);
}

TEST(Shapes, ParallelChains) {
  const Deps d = parallel_chains(3, 4);
  EXPECT_EQ(d.size(), 12u);
  EXPECT_EQ(depth_of(d), 4);
  EXPECT_EQ(count_leaves(d), 3);
  EXPECT_EQ(count_roots(d), 3);
}

TEST(Shapes, TreeBinaryDepthThree) {
  // depth 3, fanout 2: 1 root + 2 + 4 = 7 nodes.
  const Deps d = tree(3, 2);
  EXPECT_EQ(d.size(), 7u);
  EXPECT_EQ(depth_of(d), 3);
  EXPECT_EQ(count_leaves(d), 4);
  EXPECT_EQ(count_roots(d), 1);
  // Every non-leaf has exactly `fanout` dependencies.
  int internal = 0;
  for (const auto& dep : d)
    if (!dep.empty()) {
      EXPECT_EQ(dep.size(), 2u);
      ++internal;
    }
  EXPECT_EQ(internal, 3);
}

TEST(Shapes, TreeDepthOneIsSingle) {
  EXPECT_EQ(tree(1, 3), single());
}

TEST(Shapes, InvertedV) {
  const Deps d = inverted_v(4);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(depth_of(d), 2);
  EXPECT_EQ(count_leaves(d), 4);
  EXPECT_EQ(count_roots(d), 1);
}

TEST(Shapes, WShape) {
  const Deps d = w_shape();
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(depth_of(d), 2);
  EXPECT_EQ(count_leaves(d), 3);
  EXPECT_EQ(count_roots(d), 2);
  // The middle leaf (1) feeds both roots.
  EXPECT_EQ(d[3], (std::vector<int>{0, 1}));
  EXPECT_EQ(d[4], (std::vector<int>{1, 2}));
}

TEST(Shapes, MultiRoot) {
  const Deps d = multi_root(3, 4);
  EXPECT_EQ(d.size(), 7u);
  EXPECT_EQ(count_roots(d), 3);
  EXPECT_EQ(count_leaves(d), 4);
  EXPECT_EQ(depth_of(d), 2);
}

class RandomDagSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagSeeds, AlwaysAcyclicAndInRange) {
  Rng rng(GetParam());
  const Deps d = random_dag(rng, 12, 0.3);
  ASSERT_EQ(d.size(), 12u);
  // Edges only point backwards (i depends on j < i) => acyclic by
  // construction; depth_of throws on cycles.
  for (std::size_t i = 0; i < d.size(); ++i)
    for (int dep : d[i]) {
      EXPECT_GE(dep, 0);
      EXPECT_LT(dep, static_cast<int>(i));
    }
  EXPECT_NO_THROW(depth_of(d));
  EXPECT_GE(depth_of(d), 1);
  EXPECT_LE(depth_of(d), 12);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, RandomDagSeeds,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(Shapes, RandomDagEdgeProbabilityExtremes) {
  Rng rng(5);
  const Deps none = random_dag(rng, 6, 0.0);
  for (const auto& d : none) EXPECT_TRUE(d.empty());
  const Deps all = random_dag(rng, 6, 1.0);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].size(), i);
  EXPECT_EQ(depth_of(all), 6);
}

TEST(Shapes, DepthOfDetectsCycle) {
  Deps cyclic(2);
  cyclic[0] = {1};
  cyclic[1] = {0};
  EXPECT_THROW(depth_of(cyclic), std::logic_error);
}

}  // namespace
}  // namespace gurita::shapes
