#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <queue>
#include <utility>

#include "graph/io.hpp"
#include "obs/host_profiler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hyve {
namespace {

// Sorts, deduplicates, and drops out-of-range / self-loop edges in place.
void canonicalize(std::vector<Edge>& edges, VertexId num_vertices,
                  bool allow_self_loops) {
  std::erase_if(edges, [&](const Edge& e) {
    if (e.src >= num_vertices || e.dst >= num_vertices) return true;
    return !allow_self_loops && e.src == e.dst;
  });
  sort_unique_edges(edges, num_vertices);
}

Edge rmat_edge(VertexId scale_pow2, const RmatParams& p, Rng& rng) {
  VertexId src = 0;
  VertexId dst = 0;
  for (VertexId step = scale_pow2 >> 1; step > 0; step >>= 1) {
    const double r = rng.next_double();
    if (r < p.a) {
      // top-left quadrant: neither bit set
    } else if (r < p.a + p.b) {
      dst |= step;
    } else if (r < p.a + p.b + p.c) {
      src |= step;
    } else {
      src |= step;
      dst |= step;
    }
  }
  return {src, dst};
}

}  // namespace

Graph generate_rmat(VertexId num_vertices, std::uint64_t target_edges,
                    const RmatParams& params, std::uint64_t seed) {
  const obs::HostSpan host_span("rmat.generate");
  HYVE_CHECK(num_vertices > 1);
  const double sum = params.a + params.b + params.c + params.d;
  HYVE_CHECK_MSG(std::abs(sum - 1.0) < 1e-9, "R-MAT probabilities sum to "
                                                 << sum);
  const VertexId scale = std::bit_ceil(num_vertices);
  Rng rng(seed);

  std::vector<Edge> edges;
  edges.reserve(target_edges + target_edges / 4);
  // Oversample in rounds until the deduplicated set reaches the target;
  // R-MAT's duplicate rate grows with skew, so the loop adapts.
  std::uint64_t produced_target = target_edges;
  for (int round = 0; round < 8 && edges.size() < target_edges; ++round) {
    while (edges.size() < produced_target) {
      const Edge e = rmat_edge(scale, params, rng);
      if (e.src < num_vertices && e.dst < num_vertices) edges.push_back(e);
    }
    if (params.deduplicate) {
      canonicalize(edges, num_vertices, params.allow_self_loops);
      if (edges.size() >= target_edges) break;
      // Oversample the shortfall 2x: duplicates concentrate in the dense
      // quadrant, so the marginal duplicate rate exceeds the average one.
      produced_target = edges.size() + (target_edges - edges.size()) * 2;
    } else {
      std::erase_if(edges, [&](const Edge& e) {
        return !params.allow_self_loops && e.src == e.dst;
      });
      break;
    }
  }
  if (params.deduplicate && edges.size() > target_edges)
    edges.resize(target_edges);
  obs::host_profiler().count("rmat_edges", edges.size());
  return Graph(num_vertices, std::move(edges));
}

namespace {

// Sorted spill files for the chunked R-MAT path, removed on scope exit.
class TempRuns {
 public:
  explicit TempRuns(std::string stem) : stem_(std::move(stem)) {}
  ~TempRuns() {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }
  TempRuns(const TempRuns&) = delete;
  TempRuns& operator=(const TempRuns&) = delete;

  void spill(std::vector<Edge>& chunk) {
    if (chunk.empty()) return;
    std::sort(chunk.begin(), chunk.end());
    const std::string path =
        stem_ + ".run" + std::to_string(paths_.size()) + ".tmp";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw FileError("cannot open spill file " + path);
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(chunk.size() * sizeof(Edge)));
    if (!out) throw FileError("write failed: " + path);
    paths_.push_back(path);
    chunk.clear();
  }

  const std::vector<std::string>& paths() const { return paths_; }

 private:
  std::string stem_;
  std::vector<std::string> paths_;
};

// Buffered sequential reader over one sorted run.
class RunCursor {
 public:
  RunCursor(const std::string& path, std::size_t buffer_edges)
      : in_(path, std::ios::binary), buffer_edges_(buffer_edges) {
    if (!in_) throw FileError("cannot open spill file " + path);
  }

  bool next(Edge* e) {
    if (pos_ == buf_.size()) {
      buf_.resize(buffer_edges_);
      in_.read(reinterpret_cast<char*>(buf_.data()),
               static_cast<std::streamsize>(buffer_edges_ * sizeof(Edge)));
      buf_.resize(static_cast<std::size_t>(in_.gcount()) / sizeof(Edge));
      pos_ = 0;
      if (buf_.empty()) return false;
    }
    *e = buf_[pos_++];
    return true;
  }

 private:
  std::ifstream in_;
  std::size_t buffer_edges_;
  std::vector<Edge> buf_;
  std::size_t pos_ = 0;
};

// Streaming k-way merge over the runs: visits each distinct valid edge
// (in-range by construction; self-loops skipped unless allowed) in
// sorted order. Returns when fn returns false or the runs are dry.
template <typename Fn>
void merge_distinct(const std::vector<std::string>& runs,
                    std::size_t buffer_edges, bool allow_self_loops,
                    Fn&& fn) {
  std::vector<RunCursor> cursors;
  cursors.reserve(runs.size());
  using HeapItem = std::pair<Edge, std::size_t>;
  std::priority_queue<HeapItem, std::vector<HeapItem>,
                      std::greater<HeapItem>>
      heap;
  for (const std::string& path : runs) {
    cursors.emplace_back(path, buffer_edges);
    Edge e;
    if (cursors.back().next(&e)) heap.emplace(e, cursors.size() - 1);
  }
  bool have_prev = false;
  Edge prev{};
  while (!heap.empty()) {
    const auto [e, run] = heap.top();
    heap.pop();
    Edge refill;
    if (cursors[run].next(&refill)) heap.emplace(refill, run);
    if (have_prev && e == prev) continue;
    have_prev = true;
    prev = e;
    if (!allow_self_loops && e.src == e.dst) continue;
    if (!fn(e)) return;
  }
}

}  // namespace

void generate_rmat_blocked(const std::string& path, VertexId num_vertices,
                           std::uint64_t target_edges,
                           const RmatParams& params, std::uint64_t seed,
                           const RmatChunkOptions& options) {
  const obs::HostSpan host_span("rmat.generate");
  obs::host_profiler().count("rmat_edges", target_edges);
  HYVE_CHECK(num_vertices > 1);
  HYVE_CHECK(options.chunk_edges > 0);
  const double sum = params.a + params.b + params.c + params.d;
  HYVE_CHECK_MSG(std::abs(sum - 1.0) < 1e-9, "R-MAT probabilities sum to "
                                                 << sum);
  const VertexId scale = std::bit_ceil(num_vertices);
  Rng rng(seed);
  std::vector<Edge> chunk;
  chunk.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(options.chunk_edges, target_edges + 1)));

  if (!params.deduplicate) {
    // Generation order is the file order (matching generate_rmat, which
    // only strips self-loops after producing target_edges raw edges).
    blocked::BlockedWriter writer(path, num_vertices, options.write);
    for (std::uint64_t produced = 0; produced < target_edges;) {
      const Edge e = rmat_edge(scale, params, rng);
      if (e.src >= num_vertices || e.dst >= num_vertices) continue;
      ++produced;
      if (!params.allow_self_loops && e.src == e.dst) continue;
      writer.append(e);
    }
    writer.finish();
    return;
  }

  // Mirrors generate_rmat()'s adaptive oversampling loop, with the edge
  // multiset spilled to sorted runs instead of held in one vector: each
  // round tops the raw pool up to produced_target, then a counting merge
  // plays the role of canonicalize()'s size check. RNG consumption per
  // round is identical, so the final sorted-distinct prefix is too.
  const std::size_t merge_buffer = static_cast<std::size_t>(
      std::max<std::uint64_t>(4096, options.chunk_edges / 256));
  TempRuns runs(path);
  std::uint64_t distinct = 0;
  std::uint64_t produced_target = target_edges;
  for (int round = 0; round < 8 && distinct < target_edges; ++round) {
    for (std::uint64_t pool = distinct; pool < produced_target;) {
      const Edge e = rmat_edge(scale, params, rng);
      if (e.src >= num_vertices || e.dst >= num_vertices) continue;
      ++pool;
      chunk.push_back(e);
      if (chunk.size() >= options.chunk_edges) runs.spill(chunk);
    }
    runs.spill(chunk);
    distinct = 0;
    merge_distinct(runs.paths(), merge_buffer, params.allow_self_loops,
                   [&](const Edge&) {
                     ++distinct;
                     return true;
                   });
    if (distinct >= target_edges) break;
    // Oversample the shortfall 2x, exactly as the in-memory path does.
    produced_target = distinct + (target_edges - distinct) * 2;
  }

  blocked::BlockedWriter writer(path, num_vertices, options.write);
  std::uint64_t emitted = 0;
  merge_distinct(runs.paths(), merge_buffer, params.allow_self_loops,
                 [&](const Edge& e) {
                   writer.append(e);
                   return ++emitted < target_edges;
                 });
  writer.finish();
}

Graph generate_erdos_renyi(VertexId num_vertices, std::uint64_t target_edges,
                           std::uint64_t seed) {
  HYVE_CHECK(num_vertices > 1);
  const auto possible =
      static_cast<std::uint64_t>(num_vertices) * (num_vertices - 1);
  HYVE_CHECK_MSG(target_edges <= possible / 2,
                 "requested density too high for distinct directed edges");
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(target_edges + target_edges / 8);
  while (true) {
    while (edges.size() < target_edges + target_edges / 8 + 16) {
      const auto src = static_cast<VertexId>(rng.next_below(num_vertices));
      const auto dst = static_cast<VertexId>(rng.next_below(num_vertices));
      edges.push_back({src, dst});
    }
    canonicalize(edges, num_vertices, /*allow_self_loops=*/false);
    if (edges.size() >= target_edges) break;
  }
  edges.resize(target_edges);
  return Graph(num_vertices, std::move(edges));
}

Graph generate_barabasi_albert(VertexId num_vertices,
                               std::uint32_t edges_per_vertex,
                               std::uint64_t seed) {
  HYVE_CHECK(edges_per_vertex >= 1);
  HYVE_CHECK(num_vertices > edges_per_vertex + 1);
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * edges_per_vertex);
  // Repeated-endpoint list: sampling a uniform element is sampling
  // proportionally to degree (the standard BA implementation trick).
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(edges.capacity() * 2);

  // Seed clique over the first m+1 vertices.
  for (VertexId v = 0; v <= edges_per_vertex; ++v) {
    const VertexId u = (v + 1) % (edges_per_vertex + 1);
    edges.push_back({v, u});
    endpoint_pool.push_back(v);
    endpoint_pool.push_back(u);
  }
  for (VertexId v = edges_per_vertex + 1; v < num_vertices; ++v) {
    for (std::uint32_t j = 0; j < edges_per_vertex; ++j) {
      VertexId target = v;
      for (int attempt = 0; attempt < 16 && target == v; ++attempt)
        target = endpoint_pool[rng.next_below(endpoint_pool.size())];
      if (target == v) target = (v + 1) % v;  // degenerate fallback
      edges.push_back({v, target});
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
    }
  }
  canonicalize(edges, num_vertices, /*allow_self_loops=*/false);
  return Graph(num_vertices, std::move(edges));
}

Graph generate_watts_strogatz(VertexId num_vertices, std::uint32_t k,
                              double beta, std::uint64_t seed) {
  HYVE_CHECK(k >= 2 && k % 2 == 0);
  HYVE_CHECK(num_vertices > k + 1);
  HYVE_CHECK(beta >= 0.0 && beta <= 1.0);
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_vertices) * k / 2);
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (std::uint32_t j = 1; j <= k / 2; ++j) {
      VertexId target = static_cast<VertexId>(
          (static_cast<std::uint64_t>(v) + j) % num_vertices);
      if (rng.next_bool(beta)) {
        // Rewire to a uniform non-self target.
        do {
          target = static_cast<VertexId>(rng.next_below(num_vertices));
        } while (target == v);
      }
      edges.push_back({v, target});
    }
  }
  canonicalize(edges, num_vertices, /*allow_self_loops=*/false);
  return Graph(num_vertices, std::move(edges));
}

}  // namespace hyve
