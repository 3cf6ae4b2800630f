#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace hyve {

DynamicGraphStore::DynamicGraphStore(const Graph& initial,
                                     DynamicGraphOptions options)
    : options_(options), num_vertices_(initial.num_vertices()) {
  HYVE_CHECK(options_.num_intervals >= 1);
  HYVE_CHECK(options_.slack >= 0.0);
  vertex_capacity_ = static_cast<VertexId>(
      std::ceil(num_vertices_ * (1.0 + options_.slack))) + 1;
  vertex_valid_.assign(vertex_capacity_, false);
  for (VertexId v = 0; v < num_vertices_; ++v) vertex_valid_[v] = true;

  grid_ = options_.num_intervals;
  vmap_ = VertexMap::uniform(vertex_capacity_, grid_);

  if (!options_.hashed_block_directory)
    dense_blocks_.assign(static_cast<std::size_t>(grid_) * grid_, {});

  // Initial placement with per-block slack reservation (one-shot
  // preprocessing; not counted in preprocess_count_).
  locator_reset(initial.num_edges());
  for (const Edge& e : initial.edges()) {
    Block& b = block_for(e.src, e.dst);
    b.edges.push_back(e);
    locator_add(e, static_cast<std::uint32_t>(b.edges.size() - 1));
  }
  auto reserve_slack = [&](Block& b) {
    b.capacity = static_cast<std::uint64_t>(
                     std::ceil(b.edges.size() * (1.0 + options_.slack))) +
                 4;
    b.edges.reserve(b.capacity);
  };
  if (options_.hashed_block_directory) {
    for (auto& [key, b] : hashed_blocks_) reserve_slack(b);
  } else {
    for (Block& b : dense_blocks_) reserve_slack(b);
  }
  num_edges_ = initial.num_edges();
}

std::uint64_t DynamicGraphStore::block_key(VertexId src, VertexId dst) const {
  return static_cast<std::uint64_t>(vmap_.interval_of(src)) * grid_ +
         vmap_.interval_of(dst);
}

DynamicGraphStore::Block& DynamicGraphStore::block_for(VertexId src,
                                                       VertexId dst) {
  const std::uint64_t key = block_key(src, dst);
  if (options_.hashed_block_directory) return hashed_blocks_[key];
  return dense_blocks_[key];
}

bool DynamicGraphStore::add_edge(Edge e) {
  if (e.src >= num_vertices_ || e.dst >= num_vertices_) return false;
  Block& b = block_for(e.src, e.dst);
  if (b.edges.size() == b.capacity) {
    // Reserved space exhausted: chain an overflow chunk at the block end.
    const std::uint64_t chunk = std::max<std::uint64_t>(4, b.capacity / 4);
    b.capacity += chunk;
    b.edges.reserve(b.capacity);
    ++overflow_chunks_;
  }
  b.edges.push_back(e);
  locator_add(e, static_cast<std::uint32_t>(b.edges.size() - 1));
  ++num_edges_;
  return true;
}

bool DynamicGraphStore::delete_edge(Edge e) {
  if (e.src >= num_vertices_ || e.dst >= num_vertices_) return false;
  std::size_t bucket = 0;
  if (!locator_find(e, bucket)) return false;
  const std::uint32_t slot = locator_slots_[bucket];
  locator_erase(bucket);
  Block& b = block_for(e.src, e.dst);
  // §5: replace the edge with the block's last edge, free the tail slot.
  const Edge moved = b.edges.back();
  const auto last = static_cast<std::uint32_t>(b.edges.size() - 1);
  if (slot != last) {
    // Re-added, not updated in place: the moved entry becomes the newest
    // for its edge.
    locator_remove(moved, last);
    b.edges[slot] = moved;
    locator_add(moved, slot);
  }
  b.edges.pop_back();
  --num_edges_;
  return true;
}

std::size_t DynamicGraphStore::locator_home(std::uint64_t key) const {
  key = (key ^ (key >> 31)) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(key >> locator_shift_);
}

void DynamicGraphStore::locator_reset(std::uint64_t expected_entries) {
  const std::uint64_t buckets =
      std::bit_ceil(std::max<std::uint64_t>(16, 2 * expected_entries));
  locator_keys_.assign(buckets, kEmptyKey);
  locator_slots_.assign(buckets, 0);
  locator_size_ = 0;
  locator_shift_ = 64 - std::countr_zero(buckets);
}

void DynamicGraphStore::locator_add(Edge e, std::uint32_t slot) {
  if (2 * (locator_size_ + 1) > locator_keys_.size()) {
    // Grow 2x. Walk the old table from just past a free bucket, so every
    // probe run is re-inserted front to back and equal keys keep their
    // relative order.
    const std::vector<std::uint64_t> keys = std::move(locator_keys_);
    const std::vector<std::uint32_t> slots = std::move(locator_slots_);
    locator_reset(keys.size());
    const std::size_t old_mask = keys.size() - 1;
    const auto start = static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), kEmptyKey) - keys.begin());
    for (std::size_t n = 1; n <= keys.size(); ++n) {
      const std::size_t i = (start + n) & old_mask;
      if (keys[i] != kEmptyKey) locator_insert(keys[i], slots[i]);
    }
  }
  locator_insert(pack(e), slot);
}

void DynamicGraphStore::locator_insert(std::uint64_t key,
                                       std::uint32_t slot) {
  const std::size_t mask = locator_keys_.size() - 1;
  std::size_t i = locator_home(key);
  while (locator_keys_[i] != kEmptyKey) i = (i + 1) & mask;
  locator_keys_[i] = key;
  locator_slots_[i] = slot;
  ++locator_size_;
}

bool DynamicGraphStore::locator_remove(Edge e, std::uint32_t slot) {
  const std::uint64_t key = pack(e);
  const std::size_t mask = locator_keys_.size() - 1;
  for (std::size_t i = locator_home(key); locator_keys_[i] != kEmptyKey;
       i = (i + 1) & mask) {
    if (locator_keys_[i] == key && locator_slots_[i] == slot) {
      locator_erase(i);
      return true;
    }
  }
  return false;
}

bool DynamicGraphStore::locator_find(Edge e, std::size_t& bucket) const {
  const std::uint64_t key = pack(e);
  const std::size_t mask = locator_keys_.size() - 1;
  bool found = false;
  // The whole probe run is scanned: the last match is the newest entry.
  for (std::size_t i = locator_home(key); locator_keys_[i] != kEmptyKey;
       i = (i + 1) & mask) {
    if (locator_keys_[i] == key) {
      bucket = i;
      found = true;
    }
  }
  return found;
}

void DynamicGraphStore::locator_erase(std::size_t bucket) {
  // Backward-shift deletion: each later entry of the run moves into the
  // hole unless the hole lies before its home bucket. Entries only move
  // toward their home, in run order, so equal keys stay in order.
  const std::size_t mask = locator_keys_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t j = (hole + 1) & mask; locator_keys_[j] != kEmptyKey;
       j = (j + 1) & mask) {
    const std::size_t home = locator_home(locator_keys_[j]);
    if (((j - home) & mask) < ((j - hole) & mask)) continue;
    locator_keys_[hole] = locator_keys_[j];
    locator_slots_[hole] = locator_slots_[j];
    hole = j;
  }
  locator_keys_[hole] = kEmptyKey;
  --locator_size_;
}

VertexId DynamicGraphStore::add_vertex() {
  if (num_vertices_ + 1 > vertex_capacity_) {
    // Interval slack exhausted: vertices are accessed by index, so unlike
    // blocks they cannot chain — re-preprocess with fresh slack (§5).
    rebuild(num_vertices_ + 1);
  }
  const VertexId v = num_vertices_++;
  if (v >= vertex_valid_.size()) vertex_valid_.resize(num_vertices_, false);
  vertex_valid_[v] = true;
  return v;
}

bool DynamicGraphStore::delete_vertex(VertexId v) {
  if (v >= num_vertices_ || !vertex_valid_[v]) return false;
  vertex_valid_[v] = false;  // value set invalid; edges remain (§5)
  return true;
}

bool DynamicGraphStore::is_vertex_valid(VertexId v) const {
  return v < num_vertices_ && vertex_valid_[v];
}

void DynamicGraphStore::rebuild(VertexId new_num_vertices) {
  ++preprocess_count_;
  DynamicGraphStore fresh(
      Graph(std::max(new_num_vertices, num_vertices_), collect_edges()),
      options_);
  fresh.num_vertices_ = num_vertices_;  // caller increments afterwards
  fresh.preprocess_count_ = preprocess_count_;
  fresh.overflow_chunks_ = overflow_chunks_;
  for (VertexId v = 0; v < num_vertices_; ++v)
    fresh.vertex_valid_[v] = vertex_valid_[v];
  *this = std::move(fresh);
}

std::vector<Edge> DynamicGraphStore::collect_edges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for_each_block([&](const Block& b) {
    edges.insert(edges.end(), b.edges.begin(), b.edges.end());
  });
  return edges;
}

Graph DynamicGraphStore::snapshot() const {
  return Graph(num_vertices_, collect_edges());
}

}  // namespace hyve
