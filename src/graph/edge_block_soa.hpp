// Structure-of-arrays edge storage: the one edge image the kernels
// stream.
//
// An interleaved Edge{src, dst} layout drags destination ids through
// the cache line when a kernel only gathers source values, and vice
// versa — the bandwidth-wasting baseline of the Dann et al.
// access-pattern studies (PAPERS.md). EdgeColumns keeps the edges as
// contiguous src[]/dst[] columns (8 bytes per edge), placed there
// directly by whoever builds them (the partitioner's counting sort, or
// Graph::edge_columns_shared for the schedule-less path), and
// EdgeBlockSoA hands kernels a borrowed window over them. The per-edge
// weight hash (the SplitMix64 avalanche that SSSP, SpMV and WIDEST
// would otherwise recompute on every traversal of every edge) is a
// third column, built on demand the first time a weighted program asks
// for it, so unweighted runs never pay its 8 bytes per edge.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace hyve {

// Borrowed structure-of-arrays view over a contiguous edge run. Plain
// pointers (not spans) so kernels index all columns with one counter;
// the owning EdgeColumns must outlive the view.
struct EdgeBlockSoA {
  const VertexId* src = nullptr;
  const VertexId* dst = nullptr;
  // Graph::edge_weight_hash of each edge (feed through
  // Graph::edge_weight_from_hash for any max_weight); null unless the
  // owning columns built their weight hashes — read it through
  // weight_hashes().
  const std::uint64_t* weight_hash = nullptr;
  std::size_t count = 0;

  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  Edge edge(std::size_t i) const { return Edge{src[i], dst[i]}; }

  std::span<const VertexId> sources() const { return {src, count}; }
  std::span<const VertexId> destinations() const { return {dst, count}; }

  // The weight-hash column, failing loudly if a weighted kernel is
  // handed a block whose columns never built it.
  const std::uint64_t* weight_hashes() const {
    HYVE_CHECK_MSG(weight_hash != nullptr || count == 0,
                   "weight-hash column not built: the program must report "
                   "reads_edge_weights()");
    return weight_hash;
  }
};

// Owning edge columns. A view over [offset, offset+count) holds edges
// offset.. in column order, so a partitioning's block offsets index the
// columns directly. Immutable apart from the on-demand weight column,
// which is thread-safe to request.
class EdgeColumns {
 public:
  // Edge i is src[i] -> dst[i]; the columns must be equally long.
  EdgeColumns(std::vector<VertexId> src, std::vector<VertexId> dst);

  std::size_t size() const { return src_.size(); }
  bool empty() const { return src_.empty(); }
  std::span<const VertexId> sources() const { return src_; }
  std::span<const VertexId> destinations() const { return dst_; }

  // View over edges [offset, offset + count); bounds-checked. Carries
  // the weight-hash column once it has been built.
  EdgeBlockSoA view(std::uint64_t offset, std::uint64_t count) const;
  EdgeBlockSoA all() const { return view(0, src_.size()); }

  // Builds the weight-hash column on first call. Concurrent first
  // callers serialise on a lock and share one build, published with a
  // release store, so later calls (and every view()) cost one acquire
  // load.
  void ensure_weight_hashes() const;
  bool has_weight_hashes() const {
    return weight_hash_ptr_.load(std::memory_order_acquire) != nullptr;
  }

  // Honest footprint for cache accounting: 8 bytes per edge, plus 8
  // more once the weight-hash column is built.
  std::size_t approx_bytes() const;

 private:
  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  mutable std::mutex mu_;
  mutable std::unique_ptr<const std::vector<std::uint64_t>> weight_hash_;
  mutable std::atomic<const std::vector<std::uint64_t>*> weight_hash_ptr_{
      nullptr};
};

}  // namespace hyve
