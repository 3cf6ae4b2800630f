#include "graph/graph.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <utility>

#include "graph/edge_block_soa.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hyve {

// Per-graph memo of derived immutable images, shared by copies of the
// graph: hashed_remap results (a handful of seeds covers every realistic
// workload — configs almost always share one balance seed, so a tiny LRU
// bounds the footprint) and the structure-of-arrays edge columns.
struct Graph::RemapMemo {
  static constexpr std::size_t kMaxSeeds = 4;

  std::mutex mu;
  // Most recently used at the back.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const Graph>>> entries;
  std::shared_ptr<const EdgeColumns> columns;
};

Graph::Graph(VertexId num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  for (const Edge& e : edges_) {
    HYVE_CHECK_MSG(e.src < num_vertices_ && e.dst < num_vertices_,
                   "edge " << e.src << "->" << e.dst
                           << " out of range for V=" << num_vertices_);
  }
}

std::vector<std::uint32_t> Graph::out_degrees() const {
  std::vector<std::uint32_t> deg(num_vertices_, 0);
  for (const Edge& e : edges_) ++deg[e.src];
  return deg;
}

std::vector<std::uint32_t> Graph::in_degrees() const {
  std::vector<std::uint32_t> deg(num_vertices_, 0);
  for (const Edge& e : edges_) ++deg[e.dst];
  return deg;
}

std::uint32_t Graph::edge_weight(const Edge& e, std::uint32_t max_weight) {
  HYVE_CHECK(max_weight > 0);
  return edge_weight_from_hash(edge_weight_hash(e), max_weight);
}

Graph Graph::hashed_remap(std::uint64_t seed) const {
  std::vector<VertexId> perm(num_vertices_);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  Rng rng(seed);
  // Fisher–Yates with the deterministic session RNG.
  for (VertexId i = num_vertices_; i > 1; --i) {
    const auto j = static_cast<VertexId>(rng.next_below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  std::vector<Edge> remapped;
  remapped.reserve(edges_.size());
  for (const Edge& e : edges_) remapped.push_back({perm[e.src], perm[e.dst]});
  return Graph(num_vertices_, std::move(remapped));
}

namespace {
// The memo is created lazily on a const graph; a process-wide mutex
// guards the (rare) creation so concurrent first calls don't race.
std::mutex memo_create_mu;
}  // namespace

std::shared_ptr<const Graph> Graph::hashed_remap_shared(
    std::uint64_t seed) const {
  std::shared_ptr<RemapMemo> memo;
  {
    const std::lock_guard<std::mutex> lock(memo_create_mu);
    if (remap_memo_ == nullptr) remap_memo_ = std::make_shared<RemapMemo>();
    memo = remap_memo_;
  }
  const std::lock_guard<std::mutex> lock(memo->mu);
  for (auto it = memo->entries.begin(); it != memo->entries.end(); ++it) {
    if (it->first == seed) {
      auto hit = *it;
      memo->entries.erase(it);
      memo->entries.push_back(hit);
      return hit.second;
    }
  }
  // Build under the memo lock: concurrent same-seed callers then share
  // one build instead of duplicating the O(V + E) remap.
  auto image = std::make_shared<const Graph>(hashed_remap(seed));
  if (memo->entries.size() >= RemapMemo::kMaxSeeds)
    memo->entries.erase(memo->entries.begin());
  memo->entries.emplace_back(seed, image);
  return image;
}

std::shared_ptr<const EdgeColumns> Graph::edge_columns_shared() const {
  std::shared_ptr<RemapMemo> memo;
  {
    const std::lock_guard<std::mutex> lock(memo_create_mu);
    if (remap_memo_ == nullptr) remap_memo_ = std::make_shared<RemapMemo>();
    memo = remap_memo_;
  }
  // Build under the memo lock so concurrent first callers share one
  // O(E) split (same policy as the remap images above).
  const std::lock_guard<std::mutex> lock(memo->mu);
  if (memo->columns == nullptr) {
    std::vector<VertexId> src(edges_.size());
    std::vector<VertexId> dst(edges_.size());
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      src[i] = edges_[i].src;
      dst[i] = edges_[i].dst;
    }
    memo->columns =
        std::make_shared<const EdgeColumns>(std::move(src), std::move(dst));
  }
  return memo->columns;
}

void sort_unique_edges(std::vector<Edge>& edges, VertexId num_vertices) {
  // LSD radix order: a stable pass on the minor key, then on the major.
  // Each pass checks its key before indexing by it.
  std::vector<Edge> scratch(edges.size());
  std::vector<std::uint64_t> offsets(std::size_t{num_vertices} + 1);
  auto counting_pass = [&](const std::vector<Edge>& in, std::vector<Edge>& out,
                           VertexId Edge::*key) {
    std::fill(offsets.begin(), offsets.end(), 0);
    for (const Edge& e : in) {
      HYVE_CHECK_MSG(e.*key < num_vertices,
                     "edge " << e.src << "->" << e.dst
                             << " out of range for V=" << num_vertices);
      ++offsets[e.*key + 1];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    for (const Edge& e : in) out[offsets[e.*key]++] = e;
  };
  counting_pass(edges, scratch, &Edge::dst);
  counting_pass(scratch, edges, &Edge::src);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

Csr Csr::from_graph(const Graph& g) {
  Csr csr;
  csr.row_offsets.assign(g.num_vertices() + 1, 0);
  for (const Edge& e : g.edges()) ++csr.row_offsets[e.src + 1];
  std::partial_sum(csr.row_offsets.begin(), csr.row_offsets.end(),
                   csr.row_offsets.begin());
  csr.neighbors.resize(g.num_edges());
  std::vector<std::uint64_t> cursor(csr.row_offsets.begin(),
                                    csr.row_offsets.end() - 1);
  for (const Edge& e : g.edges()) csr.neighbors[cursor[e.src]++] = e.dst;
  return csr;
}

Graph paper_example_graph() {
  // Fig. 1 of the paper: 8 vertices, 11 edges.
  return Graph(8, {{1, 0},
                   {0, 7},
                   {2, 3},
                   {2, 4},
                   {3, 4},
                   {3, 7},
                   {4, 1},
                   {4, 5},
                   {6, 2},
                   {6, 0},
                   {7, 1}});
}

}  // namespace hyve
