#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

std::vector<Edge> block_edges(const Partitioning& part, std::uint32_t x,
                              std::uint32_t y) {
  const EdgeBlockSoA block = part.block_soa(x, y);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < block.size(); ++i) edges.push_back(block.edge(i));
  return edges;
}

TEST(Partitioning, Fig1ExampleAllocatesBlocksCorrectly) {
  // The paper's running example: 8 vertices in 4 intervals of 2;
  // "edge e2.4 is allocated to B1.2 because v2 and v4 belong to I1 and
  // I2, respectively".
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  EXPECT_EQ(part.interval_end(0) - part.interval_begin(0), 2u);
  const std::vector<Edge> b12 = block_edges(part, 1, 2);
  ASSERT_EQ(b12.size(), 2u);  // edges 2->4 and 3->4
  EXPECT_NE(std::find(b12.begin(), b12.end(), Edge{2, 4}), b12.end());
  EXPECT_NE(std::find(b12.begin(), b12.end(), Edge{3, 4}), b12.end());
}

TEST(Partitioning, Fig1AllBlocks) {
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  // Exhaustive expectations derived from Fig. 1's edge list.
  EXPECT_EQ(part.block_edge_count(0, 0), 1u);  // 1->0
  EXPECT_EQ(part.block_edge_count(0, 3), 1u);  // 0->7
  EXPECT_EQ(part.block_edge_count(1, 1), 1u);  // 2->3
  EXPECT_EQ(part.block_edge_count(1, 2), 2u);  // 2->4, 3->4
  EXPECT_EQ(part.block_edge_count(1, 3), 1u);  // 3->7
  EXPECT_EQ(part.block_edge_count(2, 0), 1u);  // 4->1
  EXPECT_EQ(part.block_edge_count(2, 2), 1u);  // 4->5
  EXPECT_EQ(part.block_edge_count(3, 0), 2u);  // 6->0, 7->1
  EXPECT_EQ(part.block_edge_count(3, 1), 1u);  // 6->2
}

TEST(Partitioning, EveryEdgeInExactlyItsBlock) {
  const Graph g = generate_rmat(1000, 8000, {}, 17);
  const Partitioning part(g, 10);
  std::uint64_t total = 0;
  for (std::uint32_t x = 0; x < 10; ++x) {
    for (std::uint32_t y = 0; y < 10; ++y) {
      for (const Edge& e : block_edges(part, x, y)) {
        EXPECT_EQ(part.interval_of(e.src), x);
        EXPECT_EQ(part.interval_of(e.dst), y);
      }
      total += part.block_edge_count(x, y);
    }
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(Partitioning, PreservesEdgeMultiset) {
  const Graph g = generate_rmat(400, 3000, {}, 23);
  const Partitioning part(g, 7);
  std::vector<Edge> grouped;
  for (std::uint32_t x = 0; x < 7; ++x)
    for (std::uint32_t y = 0; y < 7; ++y)
      for (const Edge& e : block_edges(part, x, y)) grouped.push_back(e);
  EXPECT_EQ(grouped.size(), part.edge_columns().size());
  auto original = g.edges();
  std::sort(grouped.begin(), grouped.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(grouped, original);
}

TEST(Partitioning, IntervalGeometry) {
  const Graph g(10, {});
  const Partitioning part(g, 3);
  EXPECT_TRUE(part.vertex_map().is_contiguous());
  EXPECT_EQ(part.interval_end(0) - part.interval_begin(0), 4u);  // ceil(10/3)
  EXPECT_EQ(part.interval_begin(0), 0u);
  EXPECT_EQ(part.interval_end(0), 4u);
  EXPECT_EQ(part.interval_begin(2), 8u);
  EXPECT_EQ(part.interval_end(2), 10u);  // clamped to V
  EXPECT_EQ(part.interval_population(2), 2u);
}

TEST(Partitioning, IntervalPopulationsSumToV) {
  const Graph g = generate_rmat(997, 2000, {}, 29);  // prime V
  for (std::uint32_t p : {1u, 2u, 5u, 8u, 13u, 100u}) {
    const Partitioning part(g, p);
    std::uint64_t pop = 0;
    for (std::uint32_t i = 0; i < p; ++i) pop += part.interval_population(i);
    EXPECT_EQ(pop, 997u) << "P=" << p;
  }
}

TEST(Partitioning, SingleIntervalHoldsEverything) {
  const Graph g = generate_rmat(100, 500, {}, 31);
  const Partitioning part(g, 1);
  EXPECT_EQ(part.block_edge_count(0, 0), g.num_edges());
  EXPECT_EQ(part.non_empty_blocks(), 1u);
}

TEST(Partitioning, RejectsMoreIntervalsThanVertices) {
  const Graph g(4, {});
  EXPECT_THROW(Partitioning(g, 5), InvariantError);
}

TEST(Partitioning, RejectsOutOfRangeBlockQueries) {
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  EXPECT_THROW(part.block_soa(4, 0), InvariantError);
  EXPECT_THROW(part.block_edge_count(0, 4), InvariantError);
}

TEST(Partitioning, NonEmptyBlockCount) {
  const Graph g = paper_example_graph();
  const Partitioning part(g, 4);
  EXPECT_EQ(part.non_empty_blocks(), 9u);  // from the Fig. 1 layout
}

// Property sweep: partition invariants across interval counts.
class PartitionSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartitionSweep, BlockMembershipInvariant) {
  const std::uint32_t p = GetParam();
  const Graph g = generate_rmat(640, 5000, {}, 37);
  const Partitioning part(g, p);
  std::uint64_t total = 0;
  for (std::uint32_t x = 0; x < p; ++x)
    for (std::uint32_t y = 0; y < p; ++y) {
      for (const Edge& e : block_edges(part, x, y)) {
        EXPECT_EQ(part.interval_of(e.src), x);
        EXPECT_EQ(part.interval_of(e.dst), y);
        EXPECT_GE(e.src, part.interval_begin(x));
        EXPECT_LT(e.src, part.interval_end(x));
        EXPECT_GE(e.dst, part.interval_begin(y));
        EXPECT_LT(e.dst, part.interval_end(y));
      }
      total += part.block_edge_count(x, y);
    }
  EXPECT_EQ(total, g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(IntervalCounts, PartitionSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 31, 64, 128,
                                           640));

}  // namespace
}  // namespace hyve
