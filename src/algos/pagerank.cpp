#include "algos/pagerank.hpp"

#include "util/check.hpp"

namespace hyve {

void PageRankProgram::init(const Graph& graph) {
  num_vertices_ = graph.num_vertices();
  HYVE_CHECK(num_vertices_ > 0);
  out_degree_ = graph.out_degrees();
  const double initial = 1.0 / num_vertices_;
  rank_.assign(num_vertices_, initial);
  accum_.assign(num_vertices_, 0.0);
  contribution_.assign(num_vertices_, 0.0f);
  for (VertexId v = 0; v < num_vertices_; ++v)
    contribution_[v] = out_degree_[v] == 0
                           ? 0.0f
                           : static_cast<float>(rank_[v] / out_degree_[v]);
}

bool PageRankProgram::process_edge(const Edge& e) {
  // The source's contribution is frozen at iteration start (synchronous
  // PageRank), which is exactly what HyVE's read-only source intervals
  // provide.
  accum_[e.dst] += contribution_[e.src];
  return true;
}

std::uint64_t PageRankProgram::process_block_soa(const EdgeBlockSoA& block,
                                                 std::vector<char>* changed) {
  debug_check_changed_cover(changed, block);
  double* const accum = accum_.data();
  const float* const contribution = contribution_.data();
  const VertexId* const src = block.src;
  const VertexId* const dst = block.dst;
  // The accumulation order is the result (FP addition is non-
  // associative and the reference is sequential), so the gather-add
  // loop stays scalar; splitting the changed-marking out of it keeps it
  // branch-free either way.
  for (std::size_t i = 0; i < block.count; ++i)
    accum[dst[i]] += contribution[src[i]];
  if (changed != nullptr) {
    char* const mark = changed->data();
    // Stores of the constant 1 — duplicate destinations are benign and
    // order-free, so this scatter is safe to vectorize.
#pragma omp simd
    for (std::size_t i = 0; i < block.count; ++i) mark[dst[i]] = 1;
  }
  return block.count;
}

bool PageRankProgram::end_iteration(std::uint32_t completed_iterations) {
  const double base = (1.0 - damping_) / num_vertices_;
  double* const rank = rank_.data();
  double* const accum = accum_.data();
  float* const contribution = contribution_.data();
  const std::uint32_t* const out_degree = out_degree_.data();
  // Pure elementwise apply phase — vectorizes cleanly, and per-element
  // FP order is unchanged so results stay byte-identical.
#pragma omp simd
  for (VertexId v = 0; v < num_vertices_; ++v) {
    rank[v] = base + damping_ * accum[v];
    accum[v] = 0.0;
    contribution[v] = out_degree[v] == 0
                          ? 0.0f
                          : static_cast<float>(rank[v] / out_degree[v]);
  }
  return completed_iterations < num_iterations_;
}

}  // namespace hyve
