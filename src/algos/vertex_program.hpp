// Edge-centric vertex programs (paper §2.1, Algorithm 1).
//
// A VertexProgram supplies Initialize() and Update() of the edge-centric
// GAS specialisation: every iteration streams every edge and updates the
// destination vertex from the source's property. Crucially for HyVE's
// data-sharing scheme, Update() never writes the *source* vertex — the
// source interval may live in a remote PU's SRAM behind the router and is
// read-only during processing (§4.2).
//
// Programs also describe their vertex-record width: the PR record is
// wider than the BFS/CC one (rank + accumulator), which is why data
// sharing helps PR the most (Fig. 14).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_block_soa.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"

namespace hyve {

// Debug-build enforcement of the `changed` contract of
// process_block_soa: the vector must be indexable by every destination
// id of the block. The kernels index it unchecked on the hot path, so a
// short vector would corrupt memory silently; debug builds (NDEBUG
// undefined) scan the block up front and fail loudly instead. Release
// builds compile this to nothing.
inline void debug_check_changed_cover(const std::vector<char>* changed,
                                      const EdgeBlockSoA& block) {
#ifndef NDEBUG
  if (changed == nullptr) return;
  for (std::size_t i = 0; i < block.count; ++i)
    HYVE_CHECK_MSG(block.dst[i] < changed->size(),
                   "changed vector of size " << changed->size()
                                             << " cannot index destination "
                                             << block.dst[i]);
#else
  (void)changed;
  (void)block;
#endif
}

class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  virtual std::string name() const = 0;

  // Bytes of vertex state moved per vertex between off-chip and on-chip
  // vertex memory (the paper's "bit width of a vertex").
  virtual std::uint32_t vertex_value_bytes() const = 0;

  // Whether the algorithm has an end-of-iteration apply phase over all
  // vertices (PageRank's rank <- (1-d)/V + d*accum).
  virtual bool has_apply_phase() const { return false; }

  // Resets state for `graph` and prepares iteration 1.
  virtual void init(const Graph& graph) = 0;

  // Processes one edge; returns true iff the destination value changed.
  virtual bool process_edge(const Edge& e) = 0;

  // Whether process_block_soa reads the blocks' weight-hash column.
  // The runners consult this once per run and build the column on
  // demand, so unweighted programs never allocate it.
  virtual bool reads_edge_weights() const { return false; }

  // Processes a contiguous block of edges, handed as src[]/dst[] (and,
  // for reads_edge_weights() programs, weight-hash) columns
  // (graph/edge_block_soa.hpp); returns how many of them changed their
  // destination. When `changed` is non-null it must be indexable by
  // every destination id in the block; the entry of each changed
  // destination is set to 1 (entries are never cleared — the frontier
  // walk owns the reset). Concrete programs override this with a tight
  // non-virtual loop — one virtual call per block instead of one per
  // edge — that must stay result-equivalent to running the per-edge
  // process_edge reference over the block in order, which is what this
  // default does. The equivalence (results, write counts, changed
  // bitmaps) is pinned per algorithm by the SoA kernel tests.
  virtual std::uint64_t process_block_soa(const EdgeBlockSoA& block,
                                          std::vector<char>* changed = nullptr) {
    debug_check_changed_cover(changed, block);
    std::uint64_t writes = 0;
    for (std::size_t i = 0; i < block.count; ++i) {
      const Edge e = block.edge(i);
      if (process_edge(e)) {
        ++writes;
        if (changed != nullptr) (*changed)[e.dst] = 1;
      }
    }
    return writes;
  }

  // Ends the iteration (apply phase, convergence bookkeeping); returns
  // true iff another full edge pass is required.
  virtual bool end_iteration(std::uint32_t completed_iterations) = 0;

  // Safety net for non-converging inputs.
  virtual std::uint32_t max_iterations() const { return 1000; }
};

}  // namespace hyve
