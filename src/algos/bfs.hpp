// Breadth-first search under the edge-centric model.
//
// Every iteration streams all edges and relaxes dist[dst] towards
// dist[src] + 1; iteration k settles all vertices at depth k, so the
// pass count equals the eccentricity of the root. The paper runs BFS
// "to convergence" with no frontier-specific datapath (§7.1: HyVE is
// general-purpose, no queue-based BFS specialisation).
#pragma once

#include <limits>
#include <vector>

#include "algos/vertex_program.hpp"

namespace hyve {

class BfsProgram final : public VertexProgram {
 public:
  static constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();

  // root = kAutoRoot picks the highest-out-degree vertex, which keeps the
  // traversal meaningful on synthetic graphs with isolated vertices.
  static constexpr VertexId kAutoRoot = static_cast<VertexId>(-1);

  explicit BfsProgram(VertexId root = kAutoRoot) : root_(root) {}

  std::string name() const override { return "BFS"; }
  std::uint32_t vertex_value_bytes() const override { return 4; }

  void init(const Graph& graph) override;
  bool process_edge(const Edge& e) override;
  std::uint64_t process_block_soa(const EdgeBlockSoA& block,
                                  std::vector<char>* changed) override;
  bool end_iteration(std::uint32_t completed_iterations) override;

  const std::vector<std::uint32_t>& distances() const { return dist_; }
  VertexId root() const { return root_; }

 private:
  VertexId root_;
  std::vector<std::uint32_t> dist_;
  bool changed_ = false;
};

}  // namespace hyve
