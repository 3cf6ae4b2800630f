// Block-level frontier tracking — an extension on top of the paper's
// dense edge-centric model.
//
// HyVE (like X-Stream) streams EVERY edge each iteration. For monotone
// relaxation algorithms (BFS, CC, SSSP) a block B[x][y] can be skipped
// exactly when no vertex of source interval I_x changed in the previous
// iteration: its edges cannot relax anything. ForeGraph-class designs
// track this with one bit per interval; the non-volatile edge memory
// makes it especially attractive because skipped blocks stay power-gated.
//
// PageRank's apply phase touches every vertex every iteration, so it
// degenerates to full passes — the trace then matches the dense model
// exactly (tested).
//
// On top of the interval-granular skip sits per-iteration *pattern
// reuse* ("Leveraging Recurrent Patterns in Graph Accelerators",
// PAPERS.md): a block whose individual source vertices are all
// unchanged since the previous iteration cannot relax anything even
// when its source interval is active, so it is skipped and *replayed* —
// recorded in the trace with its full edge count and zero writes, as
// streaming it would have produced. Results, traces and reports are
// byte-identical with reuse on or off (tested); only the host-side work
// and the sim.kernel.blocks_skipped / edges_skipped tallies differ.
#pragma once

#include <cstdint>
#include <vector>

#include "algos/runner.hpp"
#include "graph/partition.hpp"

namespace hyve {

struct FrontierTrace {
  // One processed block of an iteration: the flattened block index
  // (x * P + y) and the number of edges it contained. Skipped and empty
  // blocks are not stored; on the later frontier iterations of BFS/SSSP
  // only a handful of blocks remain active, so the sparse form is far
  // smaller than the dense iter x P^2 table it replaces.
  struct BlockCount {
    std::uint64_t block = 0;
    std::uint64_t edges = 0;
  };

  std::uint32_t num_intervals = 0;
  // iteration_blocks[iter] = the non-empty blocks processed in that
  // iteration, sorted by flattened block index.
  std::vector<std::vector<BlockCount>> iteration_blocks;
  FunctionalResult result;  // edges_traversed counts processed edges only

  std::uint32_t iterations() const {
    return static_cast<std::uint32_t>(iteration_blocks.size());
  }

  // Dense-compatible accessor: edges processed in block (x, y) during
  // `iter` (0 for skipped/empty blocks). Binary search over the sorted
  // sparse list; prefer expand_iteration() in per-iteration hot loops.
  std::uint64_t block_edges(std::uint32_t iter, std::uint32_t x,
                            std::uint32_t y) const;

  // Expands one iteration into a dense P*P table (resized and zeroed).
  void expand_iteration(std::uint32_t iter,
                        std::vector<std::uint64_t>& dense) const;

  // Marks active[x] = 1 for every source interval x with at least one
  // processed block in `iter` (others 0; resized to P).
  void source_activity(std::uint32_t iter, std::vector<char>& active) const;

  std::uint64_t edges_in_iteration(std::uint32_t iter) const;
  std::uint64_t active_blocks_in_iteration(std::uint32_t iter) const;

  // Pattern-reuse tallies: blocks replayed instead of re-streamed, and
  // the edges those replays avoided streaming. Replayed blocks still
  // appear in iteration_blocks (and in edges_traversed) with their full
  // counts — the simulated machine streams them either way; these
  // fields record the *host-side* work the reuse saved, surfaced as the
  // sim.kernel.* metrics.
  std::uint64_t blocks_skipped = 0;
  std::uint64_t edges_skipped = 0;
};

struct FrontierOptions {
  // Skip/replay blocks whose active-source set is unchanged since the
  // previous iteration (sound for the same monotone programs interval
  // skipping is sound for; apply-phase programs degenerate to full
  // passes either way). Results and reports are identical either way;
  // off re-streams every active block and is kept as the reference the
  // tests compare against.
  bool pattern_reuse = true;
};

// Runs `program` to convergence, skipping blocks with inactive source
// intervals. Results are identical to the dense run for programs whose
// process_edge() returns false whenever the destination is unchanged.
FrontierTrace run_frontier(const Graph& graph, VertexProgram& program,
                           const Partitioning& schedule,
                           const FrontierOptions& options = {});

}  // namespace hyve
