#include "algos/sssp.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hyve {

void SsspProgram::init(const Graph& graph) {
  HYVE_CHECK(graph.num_vertices() > 0);
  if (root_ == kAutoRoot) {
    const auto deg = graph.out_degrees();
    root_ = static_cast<VertexId>(
        std::max_element(deg.begin(), deg.end()) - deg.begin());
  }
  HYVE_CHECK(root_ < graph.num_vertices());
  dist_.assign(graph.num_vertices(), kUnreached);
  dist_[root_] = 0;
  changed_ = false;
}

bool SsspProgram::process_edge(const Edge& e) {
  if (dist_[e.src] == kUnreached) return false;
  const std::uint64_t candidate =
      dist_[e.src] + Graph::edge_weight(e, max_weight_);
  if (candidate < dist_[e.dst]) {
    dist_[e.dst] = candidate;
    changed_ = true;
    return true;
  }
  return false;
}

std::uint64_t SsspProgram::process_block_soa(const EdgeBlockSoA& block,
                                             std::vector<char>* changed) {
  debug_check_changed_cover(changed, block);
  std::uint64_t* const dist = dist_.data();
  const VertexId* const src = block.src;
  const VertexId* const dst = block.dst;
  const std::uint64_t* const hash = block.weight_hashes();
  const std::uint32_t max_weight = max_weight_;
  std::uint64_t writes = 0;
  // The precomputed hash column replaces the reference's per-edge
  // SplitMix64 avalanche with one modulo — the bulk of this kernel's
  // win. The relaxation stays sequential (in-pass propagation), with a
  // saturating branchless candidate: kUnreached plus any weight wraps
  // below kUnreached, so guard with a select instead of the
  // reference's early-out branch.
  for (std::size_t i = 0; i < block.count; ++i) {
    const std::uint64_t ds = dist[src[i]];
    const std::uint64_t candidate =
        ds == kUnreached
            ? kUnreached
            : ds + Graph::edge_weight_from_hash(hash[i], max_weight);
    if (candidate < dist[dst[i]]) {
      dist[dst[i]] = candidate;
      ++writes;
      if (changed != nullptr) (*changed)[dst[i]] = 1;
    }
  }
  changed_ |= writes > 0;
  return writes;
}

bool SsspProgram::end_iteration(std::uint32_t) {
  const bool more = changed_;
  changed_ = false;
  return more;
}

}  // namespace hyve
