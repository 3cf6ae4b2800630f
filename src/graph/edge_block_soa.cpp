#include "graph/edge_block_soa.hpp"

#include <utility>

#include "obs/host_profiler.hpp"

namespace hyve {

EdgeColumns::EdgeColumns(std::vector<VertexId> src, std::vector<VertexId> dst)
    : src_(std::move(src)), dst_(std::move(dst)) {
  HYVE_CHECK_MSG(src_.size() == dst_.size(),
                 "edge columns differ in length: " << src_.size() << " vs "
                                                   << dst_.size());
}

EdgeBlockSoA EdgeColumns::view(std::uint64_t offset, std::uint64_t count) const {
  HYVE_CHECK_MSG(offset + count <= src_.size(),
                 "SoA view [" << offset << ", " << offset + count
                              << ") out of range for " << src_.size()
                              << " edges");
  EdgeBlockSoA block;
  block.src = src_.data() + offset;
  block.dst = dst_.data() + offset;
  if (const auto* hash = weight_hash_ptr_.load(std::memory_order_acquire))
    block.weight_hash = hash->data() + offset;
  block.count = static_cast<std::size_t>(count);
  return block;
}

void EdgeColumns::ensure_weight_hashes() const {
  if (has_weight_hashes()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (weight_hash_ != nullptr) return;
  const obs::HostSpan host_span("edges.weight_hash");
  auto column = std::make_unique<std::vector<std::uint64_t>>(src_.size());
  std::uint64_t* const hash = column->data();
  const VertexId* const src = src_.data();
  const VertexId* const dst = dst_.data();
  const std::size_t n = src_.size();
  // Pure per-element arithmetic — the compiler vectorizes it outright.
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    hash[i] = Graph::edge_weight_hash(Edge{src[i], dst[i]});
  weight_hash_ = std::move(column);
  weight_hash_ptr_.store(weight_hash_.get(), std::memory_order_release);
}

std::size_t EdgeColumns::approx_bytes() const {
  std::size_t bytes = sizeof(EdgeColumns) +
                      src_.capacity() * sizeof(VertexId) +
                      dst_.capacity() * sizeof(VertexId);
  if (const auto* hash = weight_hash_ptr_.load(std::memory_order_acquire))
    bytes += hash->capacity() * sizeof(std::uint64_t);
  return bytes;
}

}  // namespace hyve
