// Dynamic-graph working flow (paper §5).
//
// HyVE keeps the interval-block layout mutable by reserving slack space
// (30% by default) in every block and interval:
//   * add edge    — O(1): append to the block's slack; when the slack is
//     exhausted an overflow chunk is chained from the block's end;
//   * delete edge — the edge is replaced by the block's last edge and the
//     tail slot is freed;
//   * add vertex  — appended into the interval slack; when interval slack
//     runs out a full re-preprocessing pass is triggered (vertex access
//     is not sequential, so chaining does not work there);
//   * delete vertex — the value is invalidated in place (e.g. -1 for PR).
//
// §5 calls the key enabler "address managements for graph data in the
// memory": the host keeps an edge-locator index so a delete request goes
// straight to the edge's slot instead of scanning its block. The locator
// is a flat open-addressing table (linear probing, load <= 1/2,
// backward-shift deletion), so a lookup touches a few adjacent buckets
// and no heap node.
//
// The same store parameterised at GraphR's 8x8-vertex granularity is the
// Fig. 20 baseline: its block grid is too large for direct indexing and
// must be addressed through a hash directory, which is where the
// throughput gap comes from.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace hyve {

struct DynamicGraphOptions {
  std::uint32_t num_intervals = 64;
  double slack = 0.30;  // reserved fraction per block/interval
  // Address blocks through a hash map instead of a dense grid (GraphR's
  // (V/8)^2 blocks cannot be directly indexed).
  bool hashed_block_directory = false;
};

class DynamicGraphStore {
 public:
  DynamicGraphStore(const Graph& initial, DynamicGraphOptions options);

  // O(1) amortised; returns false for out-of-range endpoints.
  bool add_edge(Edge e);
  // Removes one occurrence (the most recently placed one); returns false
  // if absent. The locator finds the slot in O(1) expected; removal
  // itself is swap-with-last, O(1).
  bool delete_edge(Edge e);

  // Appends a vertex; triggers re-preprocessing when the interval slack
  // is exhausted. Returns the new vertex id.
  VertexId add_vertex();
  // Invalidates a vertex (its edges stay, matching §5's semantics).
  bool delete_vertex(VertexId v);
  bool is_vertex_valid(VertexId v) const;

  VertexId num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint64_t preprocess_count() const { return preprocess_count_; }
  std::uint64_t overflow_chunks() const { return overflow_chunks_; }

  // Materialises the current edge set (valid vertices only are the
  // caller's concern; edges of invalidated vertices are included as §5
  // leaves them in place).
  Graph snapshot() const;

  // Visits every stored edge in snapshot() order without materialising
  // the edge list.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for_each_block([&](const Block& b) {
      for (const Edge& e : b.edges) fn(e);
    });
  }

 private:
  struct Block {
    std::vector<Edge> edges;      // size() <= capacity, then chained
    std::uint64_t capacity = 0;   // reserved slots before chaining

    Block() = default;
    Block(Block&&) = default;
    Block& operator=(Block&&) = default;
    // A copy reserves `capacity` too, so a copied store (a pristine one
    // restored between measurement rounds) absorbs adds in place exactly
    // like the store it was copied from.
    Block(const Block& other) { *this = other; }
    Block& operator=(const Block& other) {
      if (this != &other) {
        capacity = other.capacity;
        edges.reserve(capacity);
        edges.assign(other.edges.begin(), other.edges.end());
      }
      return *this;
    }
  };

  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    if (options_.hashed_block_directory) {
      for (const auto& [key, b] : hashed_blocks_) fn(b);
    } else {
      for (const Block& b : dense_blocks_) fn(b);
    }
  }

  std::uint64_t block_key(VertexId src, VertexId dst) const;
  Block& block_for(VertexId src, VertexId dst);
  std::vector<Edge> collect_edges() const;
  void rebuild(VertexId new_num_vertices);

  // Packed (src, dst); src < 2^32 - 1, so no edge packs to kEmptyKey.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static std::uint64_t pack(Edge e) {
    return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
  }
  std::size_t locator_home(std::uint64_t key) const;
  void locator_reset(std::uint64_t expected_entries);
  // Appends an entry, growing the table to keep load <= 1/2.
  void locator_add(Edge e, std::uint32_t slot);
  void locator_insert(std::uint64_t key, std::uint32_t slot);
  // Removes the locator entry for e at `slot`; returns false if absent.
  bool locator_remove(Edge e, std::uint32_t slot);
  // Finds the bucket of the newest entry for e; returns false if absent.
  bool locator_find(Edge e, std::size_t& bucket) const;
  void locator_erase(std::size_t bucket);

  DynamicGraphOptions options_;
  VertexId num_vertices_ = 0;
  VertexId vertex_capacity_ = 0;  // reserved vertex slots
  std::uint64_t num_edges_ = 0;
  // Uniform map over vertex_capacity_ (the slack grid may have more
  // intervals than live vertices; trailing intervals sit empty).
  VertexMap vmap_;
  std::uint32_t grid_ = 1;  // intervals per axis
  std::vector<Block> dense_blocks_;                      // HyVE layout
  std::unordered_map<std::uint64_t, Block> hashed_blocks_;  // GraphR layout
  // Host-side address management (§5): edge -> slot within its block.
  // Parallel bucket arrays (power-of-two size). Entries for one edge keep
  // their insertion order along the probe run (insertion takes the first
  // free bucket, backward-shift deletion never reorders), so the last
  // match is the newest entry — the one a delete removes.
  std::vector<std::uint64_t> locator_keys_;  // kEmptyKey = free bucket
  std::vector<std::uint32_t> locator_slots_;
  std::uint64_t locator_size_ = 0;
  int locator_shift_ = 64;  // 64 - log2(bucket count)
  std::vector<bool> vertex_valid_;
  std::uint64_t preprocess_count_ = 0;
  std::uint64_t overflow_chunks_ = 0;
};

}  // namespace hyve
