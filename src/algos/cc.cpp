#include "algos/cc.hpp"

#include <numeric>

namespace hyve {

void CcProgram::init(const Graph& graph) {
  label_.assign(graph.num_vertices(), 0);
  std::iota(label_.begin(), label_.end(), VertexId{0});
  changed_ = false;
}

bool CcProgram::process_edge(const Edge& e) {
  if (label_[e.src] < label_[e.dst]) {
    label_[e.dst] = label_[e.src];
    changed_ = true;
    return true;
  }
  return false;
}

std::uint64_t CcProgram::process_block_soa(const EdgeBlockSoA& block,
                                           std::vector<char>* changed) {
  debug_check_changed_cover(changed, block);
  VertexId* const label = label_.data();
  const VertexId* const src = block.src;
  const VertexId* const dst = block.dst;
  std::uint64_t writes = 0;
  // Sequential by necessity: min-label propagation within the block is
  // in-pass (an edge may read a label an earlier edge just lowered).
  for (std::size_t i = 0; i < block.count; ++i) {
    const VertexId ls = label[src[i]];
    if (ls < label[dst[i]]) {
      label[dst[i]] = ls;
      ++writes;
      if (changed != nullptr) (*changed)[dst[i]] = 1;
    }
  }
  changed_ |= writes > 0;
  return writes;
}

bool CcProgram::end_iteration(std::uint32_t) {
  const bool more = changed_;
  changed_ = false;
  return more;
}

Graph symmetrized(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(2 * g.num_edges());
  edges.insert(edges.end(), g.edges().begin(), g.edges().end());
  for (const Edge& e : g.edges())
    if (e.src != e.dst) edges.push_back({e.dst, e.src});
  sort_unique_edges(edges, g.num_vertices());
  return Graph(g.num_vertices(), std::move(edges));
}

}  // namespace hyve
