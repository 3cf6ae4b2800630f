// Gather-Apply-Scatter adapter (paper §2.1).
//
// The paper frames HyVE's edge-centric execution as the shared-memory
// specialisation of the GAS model: per edge, the destination is updated
// from the source's property. GasProgram lets users express a new
// algorithm as three small callables instead of a VertexProgram subclass:
//
//   auto program = GasProgram<std::uint32_t>({
//       .name = "reach",
//       .init = [](VertexId v, const Graph&) { return v == root ? 1u : 0u; },
//       .scatter = [](const Edge&, const std::uint32_t& src,
//                     const std::uint32_t& dst)
//           -> std::optional<std::uint32_t> {
//         return (src && !dst) ? std::make_optional(1u) : std::nullopt;
//       },
//   });
//   HyveMachine(HyveConfig::hyve_opt()).run(graph, program);
//
// scatter() returning a value writes the destination (and keeps the
// iteration going); std::nullopt leaves it untouched. The contract of
// §4.2 is preserved by construction: scatter cannot write the source.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algos/vertex_program.hpp"
#include "util/check.hpp"

namespace hyve {

template <typename Value>
class GasProgram final : public VertexProgram {
 public:
  struct Spec {
    std::string name = "gas";
    // Initial vertex value.
    std::function<Value(VertexId, const Graph&)> init;
    // Edge update: new destination value, or nullopt for no change.
    std::function<std::optional<Value>(const Edge&, const Value& src,
                                       const Value& dst)>
        scatter;
    // Optional end-of-iteration apply over every vertex (marks the
    // program as having an apply phase, like PageRank).
    std::function<Value(VertexId, const Value&)> apply;
    // Optional fused SoA block kernel: must be observably identical to
    // applying `scatter` edge by edge in block order (same writes, same
    // write count, same changed-marking). Ready-made programs install
    // one so the hot path pays one call per block instead of one
    // std::function dispatch per edge; when absent the adapter loops
    // `scatter` itself.
    std::function<std::uint64_t(const EdgeBlockSoA& block, Value* values,
                                std::vector<char>* changed)>
        scatter_block_soa;
    // Whether scatter_block_soa reads block.weight_hashes() (the
    // program's reads_edge_weights()).
    bool reads_edge_weights = false;
    // Stop after this many iterations even if still changing.
    std::uint32_t max_iterations = 1000;
  };

  explicit GasProgram(Spec spec) : spec_(std::move(spec)) {
    HYVE_CHECK_MSG(spec_.init && spec_.scatter,
                   "GasProgram needs init and scatter callables");
  }

  std::string name() const override { return spec_.name; }
  std::uint32_t vertex_value_bytes() const override { return sizeof(Value); }
  bool has_apply_phase() const override { return bool{spec_.apply}; }
  std::uint32_t max_iterations() const override {
    return spec_.max_iterations;
  }
  bool reads_edge_weights() const override {
    return spec_.reads_edge_weights;
  }

  void init(const Graph& graph) override {
    values_.clear();
    values_.reserve(graph.num_vertices());
    for (VertexId v = 0; v < graph.num_vertices(); ++v)
      values_.push_back(spec_.init(v, graph));
    changed_ = false;
  }

  bool process_edge(const Edge& e) override {
    const std::optional<Value> next =
        spec_.scatter(e, values_[e.src], values_[e.dst]);
    if (!next.has_value()) return false;
    values_[e.dst] = *next;
    changed_ = true;
    return true;
  }

  std::uint64_t process_block_soa(const EdgeBlockSoA& block,
                                  std::vector<char>* changed) override {
    debug_check_changed_cover(changed, block);
    if (spec_.scatter_block_soa) {
      const std::uint64_t writes =
          spec_.scatter_block_soa(block, values_.data(), changed);
      changed_ |= writes > 0;
      return writes;
    }
    // The scatter callable takes an Edge, so the win here is the
    // hoisted column streams, not a tighter inner body; user programs
    // keep their exact per-edge semantics.
    Value* const values = values_.data();
    const VertexId* const src = block.src;
    const VertexId* const dst = block.dst;
    std::uint64_t writes = 0;
    for (std::size_t i = 0; i < block.count; ++i) {
      const Edge e{src[i], dst[i]};
      const std::optional<Value> next =
          spec_.scatter(e, values[src[i]], values[dst[i]]);
      if (!next.has_value()) continue;
      values[dst[i]] = *next;
      ++writes;
      if (changed != nullptr) (*changed)[dst[i]] = 1;
    }
    changed_ |= writes > 0;
    return writes;
  }

  bool end_iteration(std::uint32_t completed) override {
    if (spec_.apply) {
      for (VertexId v = 0; v < values_.size(); ++v)
        values_[v] = spec_.apply(v, values_[v]);
    }
    const bool more = changed_ || spec_.apply != nullptr;
    changed_ = false;
    return more && completed < spec_.max_iterations;
  }

  const std::vector<Value>& values() const { return values_; }

 private:
  Spec spec_;
  std::vector<Value> values_;
  bool changed_ = false;
};

// ---- ready-made GAS programs beyond the paper's five ----

// Reachability from `root`: 1 iff a directed path exists.
GasProgram<std::uint32_t> make_reachability_program(VertexId root);

// Widest path (maximum bottleneck capacity) from `root`, using the
// deterministic hash weights as capacities.
GasProgram<std::uint32_t> make_widest_path_program(
    VertexId root, std::uint32_t max_capacity = 64);

}  // namespace hyve
