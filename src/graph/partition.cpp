#include "graph/partition.hpp"

#include <algorithm>
#include <utility>

#include "obs/host_profiler.hpp"
#include "util/check.hpp"

namespace hyve {

VertexMap VertexMap::uniform(VertexId num_vertices,
                             std::uint32_t num_intervals) {
  HYVE_CHECK(num_intervals >= 1);
  VertexMap map(num_vertices, num_intervals);
  map.width_ =
      std::max<VertexId>(1, (num_vertices + num_intervals - 1) / num_intervals);
  map.populations_.assign(num_intervals, 0);
  map.begins_.assign(num_intervals + std::size_t{1}, num_vertices);
  for (std::uint32_t i = 0; i < num_intervals; ++i) {
    const auto begin = static_cast<VertexId>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(i) * map.width_, num_vertices));
    const auto end = static_cast<VertexId>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(i + 1) * map.width_, num_vertices));
    map.begins_[i] = begin;
    map.populations_[i] = end - begin;
  }
  map.contiguous_ = true;
  return map;
}

VertexMap VertexMap::from_assignment(std::vector<std::uint32_t> assignment,
                                     std::uint32_t num_intervals) {
  HYVE_CHECK(num_intervals >= 1);
  VertexMap map(static_cast<VertexId>(assignment.size()), num_intervals);
  map.assignment_ = std::move(assignment);
  map.populations_.assign(num_intervals, 0);
  for (const std::uint32_t i : map.assignment_) {
    HYVE_CHECK_MSG(i < num_intervals,
                   "vertex assigned to interval " << i << " but the map has "
                                                  << num_intervals);
    ++map.populations_[i];
  }
  // Contiguity check: the assignment sequence must be non-decreasing and
  // visit intervals in order for begin/end ranges to be meaningful.
  map.contiguous_ = std::is_sorted(map.assignment_.begin(),
                                   map.assignment_.end());
  if (map.contiguous_) {
    map.begins_.assign(num_intervals + std::size_t{1}, 0);
    for (std::uint32_t i = 0; i < num_intervals; ++i)
      map.begins_[i + 1] = map.begins_[i] + map.populations_[i];
  }
  return map;
}

VertexId VertexMap::population(std::uint32_t i) const {
  HYVE_CHECK(i < num_intervals_);
  return populations_[i];
}

VertexId VertexMap::max_population() const {
  VertexId max = 0;
  for (const VertexId p : populations_) max = std::max(max, p);
  return max;
}

VertexId VertexMap::interval_begin(std::uint32_t i) const {
  HYVE_CHECK_MSG(contiguous_,
                 "interval_begin() on a non-contiguous vertex map");
  HYVE_CHECK(i < num_intervals_);
  return begins_[i];
}

VertexId VertexMap::interval_end(std::uint32_t i) const {
  HYVE_CHECK_MSG(contiguous_, "interval_end() on a non-contiguous vertex map");
  HYVE_CHECK(i < num_intervals_);
  return begins_[i] + populations_[i];
}

Partitioning::Partitioning(const Graph& g, VertexMap map)
    : Partitioning(InMemoryGraphSource(g), std::move(map)) {}

Partitioning::Partitioning(const GraphSource& source, VertexMap map)
    : map_(std::move(map)) {
  const obs::HostSpan host_span("partition.build");
  HYVE_CHECK_MSG(map_.num_vertices() == source.num_vertices(),
                 "vertex map covers " << map_.num_vertices()
                                      << " vertices but the graph has "
                                      << source.num_vertices());

  // Counting sort of edges by block index: one streamed pass to count,
  // one to place each endpoint straight into its column. Only the
  // grouped columns are ever resident.
  const std::uint64_t blocks = num_blocks();
  offsets_.assign(blocks + 1, 0);
  source.for_each_chunk([&](std::span<const Edge> chunk) {
    for (const Edge& e : chunk)
      ++offsets_[block_index(interval_of(e.src), interval_of(e.dst)) + 1];
  });
  for (std::uint64_t b = 0; b < blocks; ++b) offsets_[b + 1] += offsets_[b];

  std::vector<VertexId> src(source.num_edges());
  std::vector<VertexId> dst(source.num_edges());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  source.for_each_chunk([&](std::span<const Edge> chunk) {
    for (const Edge& e : chunk) {
      const std::uint64_t i =
          cursor[block_index(interval_of(e.src), interval_of(e.dst))]++;
      src[i] = e.src;
      dst[i] = e.dst;
    }
  });
  columns_ = std::make_shared<const EdgeColumns>(std::move(src), std::move(dst));
}

namespace {

VertexMap checked_uniform_map(const Graph& g, std::uint32_t num_intervals) {
  HYVE_CHECK(num_intervals >= 1);
  HYVE_CHECK_MSG(num_intervals <= g.num_vertices() || g.num_vertices() == 0,
                 "more intervals (" << num_intervals << ") than vertices ("
                                    << g.num_vertices() << ")");
  return VertexMap::uniform(g.num_vertices(), num_intervals);
}

}  // namespace

Partitioning::Partitioning(const Graph& g, std::uint32_t num_intervals)
    : Partitioning(g, checked_uniform_map(g, num_intervals)) {}

std::uint64_t Partitioning::block_edge_count(std::uint32_t x,
                                             std::uint32_t y) const {
  HYVE_CHECK(x < num_intervals() && y < num_intervals());
  const std::uint64_t b = block_index(x, y);
  return offsets_[b + 1] - offsets_[b];
}

std::uint64_t Partitioning::non_empty_blocks() const {
  std::uint64_t count = 0;
  for (std::uint64_t b = 0; b < num_blocks(); ++b)
    count += (offsets_[b + 1] > offsets_[b]) ? 1 : 0;
  return count;
}

EdgeBlockSoA Partitioning::block_soa(std::uint32_t x, std::uint32_t y) const {
  HYVE_CHECK(x < num_intervals() && y < num_intervals());
  const std::uint64_t b = block_index(x, y);
  return columns_->view(offsets_[b], offsets_[b + 1] - offsets_[b]);
}

const SourceBlockIndex& Partitioning::source_block_index() const {
  if (const SourceBlockIndex* index =
          lazy_->index_ptr.load(std::memory_order_acquire))
    return *index;
  const std::lock_guard<std::mutex> lock(lazy_->mu);
  if (lazy_->index == nullptr) {
    const obs::HostSpan host_span("partition.source_block_index");
    auto index = std::make_shared<SourceBlockIndex>();
    // Within block B[x][y] every edge shares the destination interval y,
    // and a vertex appears as a source in exactly one grid row, so each
    // (source, block) pair is distinct per block: stamping a vertex with
    // the block id dedupes repeated sources. Two passes — count rows,
    // then place — and block-major order makes every row sorted by y.
    const std::uint64_t no_block = ~std::uint64_t{0};
    std::vector<std::uint64_t> stamp(map_.num_vertices(), no_block);
    const VertexId* const sources = columns_->sources().data();
    index->offsets.assign(map_.num_vertices() + std::size_t{1}, 0);
    for (std::uint64_t b = 0; b < num_blocks(); ++b) {
      for (std::uint64_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
        const VertexId src = sources[i];
        if (stamp[src] == b) continue;
        stamp[src] = b;
        ++index->offsets[src + 1];
      }
    }
    for (VertexId v = 0; v < map_.num_vertices(); ++v)
      index->offsets[v + 1] += index->offsets[v];
    index->intervals.resize(index->offsets.back());
    std::vector<std::uint64_t> cursor(index->offsets.begin(),
                                      index->offsets.end() - 1);
    std::fill(stamp.begin(), stamp.end(), no_block);
    const std::uint32_t p = num_intervals();
    for (std::uint64_t b = 0; b < num_blocks(); ++b) {
      const auto y = static_cast<std::uint32_t>(b % p);
      for (std::uint64_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
        const VertexId src = sources[i];
        if (stamp[src] == b) continue;
        stamp[src] = b;
        index->intervals[cursor[src]++] = y;
      }
    }
    lazy_->index = std::move(index);
    lazy_->index_ptr.store(lazy_->index.get(), std::memory_order_release);
  }
  return *lazy_->index;
}

double Partitioning::replication_factor() const {
  const std::lock_guard<std::mutex> lock(lazy_->mu);
  if (!lazy_->replication_factor.has_value()) {
    // One pass over the block-major columns with a per-vertex last-block
    // stamp: each (vertex, block) incidence counts once.
    const VertexId* const src = columns_->sources().data();
    const VertexId* const dst = columns_->destinations().data();
    std::vector<std::uint64_t> last_block(map_.num_vertices(), 0);
    std::uint64_t copies = 0;
    std::uint64_t touched = 0;
    for (std::uint64_t b = 0; b < num_blocks(); ++b) {
      const std::uint64_t stamp = b + 1;  // 0 = untouched
      for (std::uint64_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
        for (const VertexId endpoint : {src[i], dst[i]}) {
          if (last_block[endpoint] == 0) ++touched;
          if (last_block[endpoint] != stamp) {
            last_block[endpoint] = stamp;
            ++copies;
          }
        }
      }
    }
    lazy_->replication_factor =
        touched == 0 ? 0.0
                     : static_cast<double>(copies) /
                           static_cast<double>(touched);
  }
  return *lazy_->replication_factor;
}

std::size_t Partitioning::lazy_bytes() const {
  std::size_t bytes = columns_->approx_bytes();
  const std::lock_guard<std::mutex> lock(lazy_->mu);
  if (lazy_->index != nullptr) bytes += lazy_->index->approx_bytes();
  return bytes;
}

}  // namespace hyve
