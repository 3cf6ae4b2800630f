// Single-source shortest paths (Bellman-Ford style relaxation), one of the
// two extra algorithms of the GraphR comparison (§7.4.3).
//
// Edge weights are the deterministic hash-derived weights of
// Graph::edge_weight, standing in for the unweighted SNAP inputs.
#pragma once

#include <limits>
#include <vector>

#include "algos/vertex_program.hpp"

namespace hyve {

class SsspProgram final : public VertexProgram {
 public:
  static constexpr std::uint64_t kUnreached =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr VertexId kAutoRoot = static_cast<VertexId>(-1);

  explicit SsspProgram(VertexId root = kAutoRoot,
                       std::uint32_t max_weight = 64)
      : root_(root), max_weight_(max_weight) {}

  std::string name() const override { return "SSSP"; }
  std::uint32_t vertex_value_bytes() const override { return 4; }

  void init(const Graph& graph) override;
  bool process_edge(const Edge& e) override;
  bool reads_edge_weights() const override { return true; }
  std::uint64_t process_block_soa(const EdgeBlockSoA& block,
                                  std::vector<char>* changed) override;
  bool end_iteration(std::uint32_t completed_iterations) override;

  const std::vector<std::uint64_t>& distances() const { return dist_; }
  VertexId root() const { return root_; }

 private:
  VertexId root_;
  std::uint32_t max_weight_;
  std::vector<std::uint64_t> dist_;
  bool changed_ = false;
};

}  // namespace hyve
