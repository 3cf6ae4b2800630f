#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <ranges>
#include <set>
#include <unordered_map>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/requests.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace hyve {
namespace {

DynamicGraphOptions hyve_options(std::uint32_t intervals = 8) {
  DynamicGraphOptions o;
  o.num_intervals = intervals;
  return o;
}

Graph small_graph() { return generate_rmat(1000, 5000, {}, 777); }

std::multiset<std::pair<VertexId, VertexId>> edge_multiset(const Graph& g) {
  std::multiset<std::pair<VertexId, VertexId>> s;
  for (const Edge& e : g.edges()) s.insert({e.src, e.dst});
  return s;
}

TEST(DynamicGraph, SnapshotPreservesInitialEdges) {
  const Graph g = small_graph();
  DynamicGraphStore store(g, hyve_options());
  EXPECT_EQ(store.num_edges(), g.num_edges());
  EXPECT_EQ(edge_multiset(store.snapshot()), edge_multiset(g));
}

TEST(DynamicGraph, AddEdgeAppears) {
  DynamicGraphStore store(Graph(10, {{0, 1}}), hyve_options(2));
  EXPECT_TRUE(store.add_edge({3, 7}));
  EXPECT_EQ(store.num_edges(), 2u);
  const auto edges = edge_multiset(store.snapshot());
  EXPECT_EQ(edges.count({3, 7}), 1u);
}

TEST(DynamicGraph, AddEdgeRejectsOutOfRange) {
  DynamicGraphStore store(Graph(4, {}), hyve_options(2));
  EXPECT_FALSE(store.add_edge({0, 9}));
  EXPECT_EQ(store.num_edges(), 0u);
}

TEST(DynamicGraph, DeleteEdgeRemovesOneOccurrence) {
  DynamicGraphStore store(Graph(4, {{0, 1}, {0, 1}, {2, 3}}),
                          hyve_options(2));
  EXPECT_TRUE(store.delete_edge({0, 1}));
  EXPECT_EQ(store.num_edges(), 2u);
  EXPECT_EQ(edge_multiset(store.snapshot()).count({0, 1}), 1u);
}

TEST(DynamicGraph, DeleteMissingEdgeFails) {
  DynamicGraphStore store(Graph(4, {{0, 1}}), hyve_options(2));
  EXPECT_FALSE(store.delete_edge({1, 0}));
  EXPECT_EQ(store.num_edges(), 1u);
}

TEST(DynamicGraph, AddDeleteRoundTrip) {
  const Graph g = small_graph();
  DynamicGraphStore store(g, hyve_options());
  for (VertexId v = 0; v < 100; ++v)
    ASSERT_TRUE(store.add_edge({v, (v + 1) % 100}));
  for (VertexId v = 0; v < 100; ++v)
    ASSERT_TRUE(store.delete_edge({v, (v + 1) % 100}));
  EXPECT_EQ(store.num_edges(), g.num_edges());
}

TEST(DynamicGraph, SlackAbsorbsGrowthWithoutPreprocessing) {
  // §5: O(1) adds into reserved space; no preprocessing triggered.
  DynamicGraphStore store(small_graph(), hyve_options());
  for (int i = 0; i < 500; ++i)
    store.add_edge({static_cast<VertexId>(i % 1000),
                    static_cast<VertexId>((i * 7 + 1) % 1000)});
  EXPECT_EQ(store.preprocess_count(), 0u);
}

TEST(DynamicGraph, OverflowChainsWhenSlackExhausted) {
  // Tiny graph, all adds into one block: slack must run out and chain.
  DynamicGraphStore store(Graph(4, {{0, 1}}), hyve_options(1));
  for (int i = 0; i < 100; ++i) store.add_edge({0, 1});
  EXPECT_GT(store.overflow_chunks(), 0u);
  EXPECT_EQ(store.num_edges(), 101u);
  EXPECT_EQ(store.preprocess_count(), 0u);  // blocks chain, never rebuild
}

TEST(DynamicGraph, AddVertexWithinSlack) {
  DynamicGraphStore store(Graph(100, {}), hyve_options(4));
  const VertexId v = store.add_vertex();
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(store.num_vertices(), 101u);
  EXPECT_TRUE(store.is_vertex_valid(v));
  EXPECT_EQ(store.preprocess_count(), 0u);
}

TEST(DynamicGraph, VertexOverflowTriggersRebuild) {
  // 30% slack on 100 vertices = 31 spare slots; the 32nd add rebuilds.
  DynamicGraphStore store(Graph(100, {{0, 1}, {50, 99}}), hyve_options(4));
  for (int i = 0; i < 40; ++i) store.add_vertex();
  EXPECT_GE(store.preprocess_count(), 1u);
  EXPECT_EQ(store.num_vertices(), 140u);
  // Edges survive the rebuild.
  EXPECT_EQ(store.num_edges(), 2u);
  EXPECT_EQ(edge_multiset(store.snapshot()).count({50, 99}), 1u);
}

TEST(DynamicGraph, DeleteVertexInvalidatesValueOnly) {
  DynamicGraphStore store(Graph(10, {{2, 3}}), hyve_options(2));
  EXPECT_TRUE(store.delete_vertex(2));
  EXPECT_FALSE(store.is_vertex_valid(2));
  EXPECT_FALSE(store.delete_vertex(2));  // already invalid
  // §5: edges remain in place.
  EXPECT_EQ(store.num_edges(), 1u);
}

TEST(DynamicGraph, AddedVertexCanReceiveEdges) {
  DynamicGraphStore store(Graph(10, {}), hyve_options(2));
  const VertexId v = store.add_vertex();
  EXPECT_TRUE(store.add_edge({0, v}));
  EXPECT_EQ(edge_multiset(store.snapshot()).count({0, v}), 1u);
}

TEST(DynamicGraph, HashedDirectoryBehavesIdentically) {
  const Graph g = small_graph();
  DynamicGraphOptions hashed;
  hashed.num_intervals = 125;  // GraphR-style fine grid
  hashed.hashed_block_directory = true;
  DynamicGraphStore a(g, hyve_options());
  DynamicGraphStore b(g, hashed);
  for (int i = 0; i < 200; ++i) {
    const Edge e{static_cast<VertexId>(i % 997),
                 static_cast<VertexId>((3 * i + 5) % 997)};
    EXPECT_EQ(a.add_edge(e), b.add_edge(e));
  }
  for (const Edge& e : g.edges() | std::views::take(200)) {
    EXPECT_EQ(a.delete_edge(e), b.delete_edge(e));
  }
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(edge_multiset(a.snapshot()), edge_multiset(b.snapshot()));
}

// Reference model of the store's slot semantics: one edge vector per
// block, every slot stamped when an edge is placed in it. A delete frees
// the newest slot holding the edge by swap-with-last, and the moved edge
// counts as newly placed. Blocks are laid out exactly as the store lays
// them out (uniform map over the slack vertex capacity), and kept in a
// std::unordered_map touched in the store's order, so the hashed
// directory iterates identically; the dense one iterates by block key.
class StoreModel {
 public:
  StoreModel(const Graph& initial, DynamicGraphOptions options)
      : options_(options), num_vertices_(initial.num_vertices()) {
    place(initial.num_vertices(), initial.edges());
  }

  bool add_edge(Edge e) {
    if (e.src >= num_vertices_ || e.dst >= num_vertices_) return false;
    Block& b = blocks_[key(e)];
    b.edges.push_back(e);
    b.stamps.push_back(++clock_);
    return true;
  }

  bool delete_edge(Edge e) {
    if (e.src >= num_vertices_ || e.dst >= num_vertices_) return false;
    const auto it = blocks_.find(key(e));
    if (it == blocks_.end()) return false;
    Block& b = it->second;
    std::size_t newest = b.edges.size();
    for (std::size_t i = 0; i < b.edges.size(); ++i)
      if (b.edges[i] == e &&
          (newest == b.edges.size() || b.stamps[i] > b.stamps[newest]))
        newest = i;
    if (newest == b.edges.size()) return false;
    b.edges[newest] = b.edges.back();
    b.stamps[newest] = ++clock_;
    b.edges.pop_back();
    b.stamps.pop_back();
    return true;
  }

  void add_vertex() {
    if (num_vertices_ + 1 > capacity_) {
      const std::vector<Edge> edges = snapshot_edges();
      place(num_vertices_ + 1, edges);
    }
    ++num_vertices_;
  }

  std::vector<Edge> snapshot_edges() const {
    std::vector<const std::pair<const std::uint64_t, Block>*> order;
    for (const auto& entry : blocks_) order.push_back(&entry);
    if (!options_.hashed_block_directory)
      std::sort(order.begin(), order.end(),
                [](auto* a, auto* b) { return a->first < b->first; });
    std::vector<Edge> edges;
    for (const auto* entry : order)
      edges.insert(edges.end(), entry->second.edges.begin(),
                   entry->second.edges.end());
    return edges;
  }

 private:
  struct Block {
    std::vector<Edge> edges;
    std::vector<std::uint64_t> stamps;
  };

  // Fresh placement, as the store's constructor and re-preprocessing do.
  void place(VertexId num_vertices, const std::vector<Edge>& edges) {
    capacity_ = static_cast<VertexId>(
                    std::ceil(num_vertices * (1.0 + options_.slack))) +
                1;
    map_ = VertexMap::uniform(capacity_, options_.num_intervals);
    blocks_ = decltype(blocks_){};  // a fresh map, as a fresh store has
    for (const Edge& e : edges) {
      Block& b = blocks_[key(e)];
      b.edges.push_back(e);
      b.stamps.push_back(++clock_);
    }
  }

  std::uint64_t key(Edge e) const {
    return static_cast<std::uint64_t>(map_.interval_of(e.src)) *
               options_.num_intervals +
           map_.interval_of(e.dst);
  }

  DynamicGraphOptions options_;
  VertexId num_vertices_;
  VertexId capacity_ = 0;
  VertexMap map_;
  std::unordered_map<std::uint64_t, Block> blocks_;
  std::uint64_t clock_ = 0;
};

// Drives the store and the model with a duplicate-heavy stream (edges
// drawn from an 8x8 corner, so every block holds many copies of a few
// edges) that grows the locator far past its initial reservation and
// exhausts the vertex slack, and compares the snapshot() sequence —
// order included — after every chunk of requests.
void expect_snapshot_sequence_matches_model(DynamicGraphOptions options) {
  Rng rng(0x5EC0 + options.num_intervals);
  std::vector<Edge> initial;
  for (int i = 0; i < 40; ++i)
    initial.push_back({static_cast<VertexId>(rng.next_below(8)),
                       static_cast<VertexId>(rng.next_below(64))});
  const Graph g(64, initial);
  DynamicGraphStore store(g, options);
  StoreModel model(g, options);
  std::vector<Edge> added(initial);
  std::uint64_t peak_edges = 0;
  for (int i = 0; i < 20000; ++i) {
    const double r = rng.next_double();
    const VertexId n = store.num_vertices();
    if (r < 0.48) {
      const VertexId range = rng.next_bool(0.9) ? 8 : n;
      const Edge e{static_cast<VertexId>(rng.next_below(range)),
                   static_cast<VertexId>(rng.next_below(range))};
      ASSERT_EQ(store.add_edge(e), model.add_edge(e));
      added.push_back(e);
    } else if (r < 0.90) {
      const Edge e = added[rng.next_below(added.size())];
      ASSERT_EQ(store.delete_edge(e), model.delete_edge(e)) << "request " << i;
    } else if (r < 0.97) {
      store.add_vertex();
      model.add_vertex();
    } else {
      store.delete_vertex(static_cast<VertexId>(rng.next_below(n)));
    }
    peak_edges = std::max(peak_edges, store.num_edges());
    if (i % 500 == 0) {
      const Graph snap = store.snapshot();
      ASSERT_EQ(snap.edges(), model.snapshot_edges()) << "request " << i;
    }
  }
  const Graph snap = store.snapshot();
  EXPECT_EQ(snap.num_vertices(), store.num_vertices());
  EXPECT_EQ(snap.edges(), model.snapshot_edges());
  EXPECT_GT(store.preprocess_count(), 0u);  // vertex-slack rebuilds ran
  EXPECT_GT(peak_edges, 4 * initial.size());  // locator grew
}

TEST(DynamicGraph, SnapshotSequenceMatchesSlotModelDense) {
  DynamicGraphOptions options = hyve_options(4);
  options.slack = 0.1;
  expect_snapshot_sequence_matches_model(options);
}

TEST(DynamicGraph, SnapshotSequenceMatchesSlotModelHashed) {
  DynamicGraphOptions options;
  options.num_intervals = 16;  // a fine grid behind the hash directory
  options.hashed_block_directory = true;
  options.slack = 0.1;
  expect_snapshot_sequence_matches_model(options);
}

// ---------- request streams ----------

TEST(Requests, DeterministicGeneration) {
  const Graph g = small_graph();
  const auto a = generate_requests(g, 1000, {}, 5);
  const auto b = generate_requests(g, 1000, {}, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].edge, b[i].edge);
  }
}

TEST(Requests, MixProportionsRoughlyHonored) {
  const Graph g = small_graph();
  const auto reqs = generate_requests(g, 20000, {}, 9);
  std::map<DynamicRequestType, int> hist;
  for (const auto& r : reqs) ++hist[r.type];
  // 45/45/5/5 with sampling noise.
  EXPECT_NEAR(hist[DynamicRequestType::kAddEdge] / 20000.0, 0.45, 0.02);
  EXPECT_NEAR(hist[DynamicRequestType::kDeleteEdge] / 20000.0, 0.45, 0.02);
  EXPECT_NEAR(hist[DynamicRequestType::kAddVertex] / 20000.0, 0.05, 0.01);
  EXPECT_NEAR(hist[DynamicRequestType::kDeleteVertex] / 20000.0, 0.05, 0.01);
}

TEST(Requests, DeletionsTargetExistingEdges) {
  const Graph g = small_graph();
  const auto reqs = generate_requests(g, 5000, {}, 11);
  const auto edges = edge_multiset(g);
  for (const auto& r : reqs)
    if (r.type == DynamicRequestType::kDeleteEdge)
      EXPECT_EQ(edges.count({r.edge.src, r.edge.dst}), 1u);
}

TEST(Requests, ApplyCountsSuccesses) {
  const Graph g = small_graph();
  DynamicGraphStore store(g, hyve_options());
  const auto reqs = generate_requests(g, 10000, {}, 13);
  const ThroughputResult result = apply_requests(store, reqs);
  EXPECT_GT(result.requests_applied, 9000u);
  EXPECT_LE(result.requests_applied, 10000u);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.millions_per_second(), 0.0);
}

TEST(Requests, HyveLayoutFasterThanGraphRLayout) {
  // Fig. 20's mechanism: the 8x8-granularity grid must go through a hash
  // directory and loses throughput.
  const Graph g = generate_rmat(20000, 100000, {}, 15);
  const auto reqs = generate_requests(g, 200000, {}, 17);

  DynamicGraphOptions hyve_opt = hyve_options(16);
  DynamicGraphOptions graphr_opt;
  graphr_opt.num_intervals = g.num_vertices() / 8;
  graphr_opt.hashed_block_directory = true;

  DynamicGraphStore hyve_store(g, hyve_opt);
  DynamicGraphStore graphr_store(g, graphr_opt);
  const double hyve_mps =
      apply_requests(hyve_store, reqs).millions_per_second();
  const double graphr_mps =
      apply_requests(graphr_store, reqs).millions_per_second();
  EXPECT_GT(hyve_mps, graphr_mps);
}

}  // namespace
}  // namespace hyve
