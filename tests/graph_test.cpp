#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hyve {
namespace {

Graph triangle() { return Graph(3, {{0, 1}, {1, 2}, {2, 0}}); }

TEST(Graph, BasicAccessors) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, RejectsOutOfRangeEdges) {
  EXPECT_THROW(Graph(2, {{0, 2}}), InvariantError);
  EXPECT_THROW(Graph(2, {{5, 0}}), InvariantError);
}

TEST(Graph, EmptyGraphIsValid) {
  const Graph g(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, OutDegrees) {
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}, {2, 1}});
  const auto deg = g.out_degrees();
  EXPECT_EQ(deg, (std::vector<std::uint32_t>{3, 0, 1, 0}));
}

TEST(Graph, InDegrees) {
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}, {2, 1}});
  const auto deg = g.in_degrees();
  EXPECT_EQ(deg, (std::vector<std::uint32_t>{0, 2, 1, 1}));
}

TEST(Graph, DegreeSumsEqualEdgeCount) {
  const Graph g = generate_rmat(256, 1000, {}, 1);
  const auto out = g.out_degrees();
  const auto in = g.in_degrees();
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0u), g.num_edges());
  EXPECT_EQ(std::accumulate(in.begin(), in.end(), 0u), g.num_edges());
}

// ---------- edge weights ----------

TEST(Graph, EdgeWeightDeterministic) {
  const Edge e{3, 7};
  EXPECT_EQ(Graph::edge_weight(e), Graph::edge_weight(e));
}

TEST(Graph, EdgeWeightInRange) {
  for (VertexId s = 0; s < 50; ++s)
    for (VertexId d = 0; d < 50; ++d) {
      const auto w = Graph::edge_weight({s, d}, 16);
      EXPECT_GE(w, 1u);
      EXPECT_LE(w, 16u);
    }
}

TEST(Graph, EdgeWeightDirectionSensitive) {
  // A hash of the packed endpoints must distinguish (a,b) from (b,a)
  // for at least most pairs.
  int differing = 0;
  for (VertexId a = 0; a < 30; ++a)
    for (VertexId b = a + 1; b < 30; ++b)
      differing += Graph::edge_weight({a, b}, 1 << 20) !=
                   Graph::edge_weight({b, a}, 1 << 20);
  EXPECT_GT(differing, 400);
}

TEST(Graph, EdgeWeightRejectsZeroMax) {
  EXPECT_THROW(Graph::edge_weight({0, 1}, 0), InvariantError);
}

// ---------- hashed remap ----------

TEST(Graph, HashedRemapPreservesCounts) {
  const Graph g = generate_rmat(512, 2000, {}, 3);
  const Graph h = g.hashed_remap(99);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(Graph, HashedRemapIsPermutation) {
  const Graph g = generate_rmat(256, 1500, {}, 5);
  const Graph h = g.hashed_remap(7);
  // The multiset of out-degrees is invariant under a vertex relabelling.
  auto d1 = g.out_degrees();
  auto d2 = h.out_degrees();
  std::sort(d1.begin(), d1.end());
  std::sort(d2.begin(), d2.end());
  EXPECT_EQ(d1, d2);
}

TEST(Graph, HashedRemapDeterministic) {
  const Graph g = triangle();
  EXPECT_EQ(g.hashed_remap(1).edges(), g.hashed_remap(1).edges());
}

TEST(Graph, HashedRemapSeedMatters) {
  const Graph g = generate_rmat(1024, 4000, {}, 8);
  EXPECT_NE(g.hashed_remap(1).edges(), g.hashed_remap(2).edges());
}

TEST(Graph, HashedRemapPreservesAdjacencyStructure) {
  // Remapping must not merge or split edges: applying it twice with the
  // same seed gives the same graph, and the self-loop-free property holds.
  const Graph g = generate_rmat(128, 600, {}, 9);
  const Graph h = g.hashed_remap(4);
  for (const Edge& e : h.edges()) EXPECT_NE(e.src, e.dst);
}

// ---------- CSR ----------

TEST(Csr, MatchesEdgeList) {
  const Graph g(4, {{0, 1}, {0, 2}, {2, 3}, {3, 0}});
  const Csr csr = Csr::from_graph(g);
  ASSERT_EQ(csr.row_offsets.size(), 5u);
  EXPECT_EQ(csr.row_offsets[0], 0u);
  EXPECT_EQ(csr.row_offsets[4], 4u);
  // Vertex 0 has neighbors {1, 2}.
  std::set<VertexId> n0(csr.neighbors.begin() + csr.row_offsets[0],
                        csr.neighbors.begin() + csr.row_offsets[1]);
  EXPECT_EQ(n0, (std::set<VertexId>{1, 2}));
}

TEST(Csr, RandomGraphRoundTrip) {
  const Graph g = generate_rmat(300, 2000, {}, 12);
  const Csr csr = Csr::from_graph(g);
  EXPECT_EQ(csr.neighbors.size(), g.num_edges());
  // Rebuild the edge multiset from CSR and compare.
  std::vector<Edge> rebuilt;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (auto i = csr.row_offsets[v]; i < csr.row_offsets[v + 1]; ++i)
      rebuilt.push_back({v, csr.neighbors[i]});
  auto original = g.edges();
  std::sort(original.begin(), original.end());
  std::sort(rebuilt.begin(), rebuilt.end());
  EXPECT_EQ(original, rebuilt);
}

// ---------- sort_unique_edges ----------

std::vector<Edge> comparison_sort_unique(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<Edge> random_edges(VertexId num_vertices, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges(count);
  for (Edge& e : edges)
    e = {static_cast<VertexId>(rng.next_below(num_vertices)),
         static_cast<VertexId>(rng.next_below(num_vertices))};
  return edges;
}

void expect_matches_comparison_sort(std::vector<Edge> edges,
                                    VertexId num_vertices) {
  const std::vector<Edge> expected = comparison_sort_unique(edges);
  sort_unique_edges(edges, num_vertices);
  EXPECT_EQ(edges, expected);
}

TEST(SortUniqueEdges, MatchesComparisonSortOnRandomEdges) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    expect_matches_comparison_sort(random_edges(1000, 20000, seed), 1000);
}

TEST(SortUniqueEdges, MatchesComparisonSortOnDuplicateHeavyEdges) {
  // 5000 edges over 16 distinct pairs; the vertex count leaves most
  // counting buckets empty.
  std::vector<Edge> edges = random_edges(4, 5000, 7);
  for (Edge& e : edges) e.dst += 300;
  expect_matches_comparison_sort(edges, 304);
}

TEST(SortUniqueEdges, KeepsSelfLoops) {
  expect_matches_comparison_sort({{3, 3}, {0, 0}, {3, 3}, {1, 0}, {0, 0}}, 4);
}

TEST(SortUniqueEdges, EmptyAndSingleVertexInputs) {
  expect_matches_comparison_sort({}, 0);
  expect_matches_comparison_sort({}, 5);
  expect_matches_comparison_sort({{0, 0}, {0, 0}, {0, 0}}, 1);
}

TEST(SortUniqueEdges, EdgesAtTheLastVertexId) {
  constexpr VertexId kV = 1u << 16;
  std::vector<Edge> edges = random_edges(kV, 3000, 11);
  edges.insert(edges.end(), {{kV - 1, kV - 1}, {kV - 1, 0}, {0, kV - 1},
                             {kV - 1, 0}, {kV - 1, kV - 2}});
  expect_matches_comparison_sort(edges, kV);
}

TEST(SortUniqueEdges, RejectsOutOfRangeEndpoints) {
  std::vector<Edge> bad_dst{{0, 1}, {1, 4}};
  EXPECT_THROW(sort_unique_edges(bad_dst, 4), InvariantError);
  std::vector<Edge> bad_src{{0, 1}, {4, 1}};
  EXPECT_THROW(sort_unique_edges(bad_src, 4), InvariantError);
}

// ---------- paper example ----------

TEST(PaperExample, MatchesFig1) {
  const Graph g = paper_example_graph();
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 11u);
  // Spot-check edges named in the figure.
  const auto& edges = g.edges();
  EXPECT_NE(std::find(edges.begin(), edges.end(), Edge{2, 4}), edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), Edge{7, 1}), edges.end());
}

}  // namespace
}  // namespace hyve
