#include "algos/frontier.hpp"

#include <algorithm>
#include <cstring>

#include "obs/live.hpp"
#include "util/check.hpp"

namespace hyve {

std::uint64_t FrontierTrace::block_edges(std::uint32_t iter, std::uint32_t x,
                                         std::uint32_t y) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  HYVE_CHECK(x < num_intervals && y < num_intervals);
  const std::uint64_t flat =
      static_cast<std::uint64_t>(x) * num_intervals + y;
  const auto& blocks = iteration_blocks[iter];
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), flat,
      [](const BlockCount& bc, std::uint64_t key) { return bc.block < key; });
  if (it == blocks.end() || it->block != flat) return 0;
  return it->edges;
}

void FrontierTrace::expand_iteration(std::uint32_t iter,
                                     std::vector<std::uint64_t>& dense) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  dense.assign(static_cast<std::size_t>(num_intervals) * num_intervals, 0);
  for (const BlockCount& bc : iteration_blocks[iter]) dense[bc.block] = bc.edges;
}

void FrontierTrace::source_activity(std::uint32_t iter,
                                    std::vector<char>& active) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  active.assign(num_intervals, 0);
  for (const BlockCount& bc : iteration_blocks[iter])
    active[bc.block / num_intervals] = 1;
}

std::uint64_t FrontierTrace::edges_in_iteration(std::uint32_t iter) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  std::uint64_t total = 0;
  for (const BlockCount& bc : iteration_blocks[iter]) total += bc.edges;
  return total;
}

std::uint64_t FrontierTrace::active_blocks_in_iteration(
    std::uint32_t iter) const {
  HYVE_CHECK(iter < iteration_blocks.size());
  // Only non-empty blocks are stored, so the list length is the count.
  return iteration_blocks[iter].size();
}

FrontierTrace run_frontier(const Graph& graph, VertexProgram& program,
                           const Partitioning& schedule,
                           const FrontierOptions& options) {
  program.init(graph);
  if (program.reads_edge_weights())
    schedule.edge_columns().ensure_weight_hashes();
  const std::uint32_t p = schedule.num_intervals();

  FrontierTrace trace;
  trace.num_intervals = p;
  // Interval activity: all sources are candidates in the first pass.
  // Every write of block B[x][y] lands in interval y, so "any source in
  // I_y changed" is exactly "some block with destination interval y had
  // writes > 0" — interval activity needs no per-vertex bookkeeping at
  // all. Apply-phase programs rewrite every vertex each iteration, so
  // their activity never narrows; single-pass programs (SpMV) never
  // reach a second iteration. Neither consumes any of the tracking
  // below, so it is skipped wholesale for them.
  const bool has_apply = program.has_apply_phase();
  const bool tracks_activity = !has_apply && program.max_iterations() > 1;
  std::vector<char> interval_active(p, 1);
  std::vector<char> next_active(tracks_activity ? p : 0, 0);

  // Per-iteration pattern reuse: block_dirty[x*p+y] records whether any
  // source vertex of B[x][y] changed since the block was last streamed.
  // A clean block would relax nothing — its sources carry exactly the
  // values it saw then, and those candidates were all applied — so it
  // is replayed into the trace instead of re-streamed. Dirt is kept
  // exact by exploiting the destination-major order: all writes into
  // interval y land during outer iteration y, so walking interval y's
  // changed bits immediately after outer y updates every row before any
  // later block — in this pass or the next — consults it. (Deferring
  // the walk to the end of the pass would miss in-pass propagation: a
  // clean block whose source changed earlier in the same pass must
  // stream, exactly as it would without reuse.) Dirt therefore persists
  // across passes and is cleared per block as it streams. Apply-phase
  // programs rewrite every vertex per iteration; like interval
  // skipping, reuse degenerates to full passes for them. Only reuse
  // needs vertex-granularity change tracking (to walk each changed
  // vertex's destination-interval row); without it the kernels skip the
  // per-write marking entirely (changed_sink stays null).
  const bool reuse = options.pattern_reuse && tracks_activity;
  const SourceBlockIndex* index =
      reuse ? &schedule.source_block_index() : nullptr;
  std::vector<char> vertex_changed(reuse ? graph.num_vertices() : 0, 0);
  std::vector<char>* const changed_sink = reuse ? &vertex_changed : nullptr;
  std::vector<char> block_dirty;
  if (reuse) block_dirty.assign(static_cast<std::size_t>(p) * p, 1);
  const VertexMap& map = schedule.vertex_map();
  const bool contiguous = map.is_contiguous();
  // Non-contiguous maps cannot walk one interval's vertex range, so
  // their per-vertex walk stays at end of pass; the in-pass hole is
  // closed conservatively instead: any write into interval x earlier in
  // the pass forces every later block of row x to stream.
  std::vector<char> wrote_this_pass(reuse && !contiguous ? p : 0, 0);

  // Per-pass block edge counts, written destination-major into a flat
  // scratch grid and compacted into the (flat-ordered) trace rows — the
  // order the binary-search accessor needs — without a sort.
  std::vector<std::uint64_t> pass_edges(static_cast<std::size_t>(p) * p, 0);

  // Consumes (and zeroes) the changed bitmap eight vertices at a time —
  // the all-clean stretches of a narrow frontier cost one word load
  // each — re-dirtying the blocks each changed vertex's out-edges land
  // in.
  char* const changed = vertex_changed.data();
  const auto walk = [&](VertexId lo, VertexId hi, auto row_of) {
    for (VertexId base = lo; base < hi; base += 8) {
      const VertexId limit = std::min<VertexId>(base + 8, hi);
      if (limit - base == 8) {
        std::uint64_t word;
        std::memcpy(&word, changed + base, sizeof word);
        if (word == 0) continue;
      }
      for (VertexId v = base; v < limit; ++v) {
        if (!changed[v]) continue;
        changed[v] = 0;
        const std::size_t row = row_of(v);
        for (const std::uint32_t y : index->row(v)) block_dirty[row + y] = 1;
      }
    }
  };

  obs::LiveTelemetry& live = obs::live_telemetry();
  bool more = true;
  while (more && trace.result.iterations < program.max_iterations()) {
    live.beat("functional.pass");
    if (tracks_activity) std::fill(next_active.begin(), next_active.end(), 0);
    if (!wrote_this_pass.empty())
      std::fill(wrote_this_pass.begin(), wrote_this_pass.end(), 0);

    for (std::uint32_t y = 0; y < p; ++y) {
      std::uint64_t writes_into_y = 0;
      for (std::uint32_t x = 0; x < p; ++x) {
        if (!interval_active[x]) continue;  // block skipped
        const EdgeBlockSoA block = schedule.block_soa(x, y);
        if (block.empty()) continue;
        const std::uint64_t flat = static_cast<std::uint64_t>(x) * p + y;
        // A block is replayed only if no source changed since it last
        // streamed. Dirt from outer iterations < y is already folded
        // in; outer iterations > y have not written yet. The diagonal
        // block B[y][y] alone can see unfolded same-iteration writes
        // (earlier blocks of this inner loop land in its source
        // interval), so any write so far forces it to stream.
        const bool replay =
            reuse && !block_dirty[flat] &&
            (x != y || writes_into_y == 0) &&
            (contiguous || x >= y || !wrote_this_pass[x]);
        if (replay) {
          // Replay: the streamed result is provably zero writes, so the
          // trace records the block exactly as streaming would have.
          ++trace.blocks_skipped;
          trace.edges_skipped += block.size();
        } else {
          const std::uint64_t writes =
              program.process_block_soa(block, changed_sink);
          trace.result.destination_writes += writes;
          if (tracks_activity && writes > 0) next_active[y] = 1;
          if (reuse) block_dirty[flat] = 0;
          writes_into_y += writes;
        }
        trace.result.edges_traversed += block.size();
        pass_edges[flat] = block.size();
      }
      // Destination interval y just closed, so its changed bits are
      // final for this pass: fold them into the dirty grid now. The
      // write count steers the work: no writes means no bits at all,
      // and an interval where most vertices changed gets its whole
      // block row dirtied wholesale (the interval-skipping answer)
      // instead of a per-vertex walk.
      if (reuse && writes_into_y > 0) {
        if (contiguous) {
          const VertexId lo = map.interval_begin(y);
          const VertexId hi = map.interval_end(y);
          const std::size_t row = static_cast<std::size_t>(y) * p;
          if (writes_into_y >= static_cast<std::uint64_t>(hi - lo) / 2) {
            std::fill_n(block_dirty.data() + row, p, char{1});
            std::memset(changed + lo, 0, hi - lo);
          } else {
            walk(lo, hi, [row](VertexId) { return row; });
          }
        } else {
          wrote_this_pass[y] = 1;
        }
      }
    }

    ++trace.result.iterations;
    more = program.end_iteration(trace.result.iterations);
    std::size_t non_empty = 0;
    for (std::uint64_t flat = 0; flat < pass_edges.size(); ++flat)
      non_empty += pass_edges[flat] != 0 ? 1 : 0;
    std::vector<FrontierTrace::BlockCount> this_pass;
    this_pass.reserve(non_empty);
    for (std::uint64_t flat = 0; flat < pass_edges.size(); ++flat) {
      if (pass_edges[flat] == 0) continue;
      this_pass.push_back({flat, pass_edges[flat]});
      pass_edges[flat] = 0;
    }
    trace.iteration_blocks.push_back(std::move(this_pass));

    // Activity only narrows for multi-pass, non-apply programs — the
    // apply phase rewrites every vertex (e.g. PageRank), leaving every
    // interval active, so frontier skipping degenerates safely. The
    // final iteration skips the bookkeeping outright: nothing reads it.
    if (more && tracks_activity) {
      std::swap(interval_active, next_active);
      if (reuse && !contiguous) {
        // Intervals whose vertices are scattered can only be walked as
        // one full sweep, so their dirt propagation lands here.
        walk(0, graph.num_vertices(), [&](VertexId v) {
          return static_cast<std::size_t>(schedule.interval_of(v)) * p;
        });
      }
    }
  }
  return trace;
}

}  // namespace hyve
