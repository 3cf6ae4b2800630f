// Parallel experiment sweeps (the engine behind tools/hyve_experiments,
// examples/design_space_explorer and the bench harness's dataset grids).
//
// A SweepSpec declares a (configs × algorithms × graphs) grid; the
// SweepEngine runs its cells on a pool of worker threads pulling from an
// atomic work queue, sharing one GraphCache/PartitionCache/
// FunctionalCache so each graph is loaded, hash-balanced and partitioned
// once per sweep instead of once per cell, and each vertex program runs
// once per (graph image, algorithm, partitioner, P, frontier mode)
// however many memory configs the grid sweeps. Cell execution is
// deterministic and results are handed to the ResultSink in cell order
// regardless of thread count, so `--jobs 8` output is byte-identical to
// `--jobs 1`.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/machine.hpp"
#include "exp/cache.hpp"

namespace hyve::obs {
class Trace;
}  // namespace hyve::obs

namespace hyve::exp {

// Declarative grid. Expansion order is row-major with configs
// outermost, then partitioners, then algorithms, with graphs innermost
// — the order the serial tools always used, partitioners slotted next
// to the config axis they modify.
struct SweepSpec {
  std::vector<HyveConfig> configs;
  // Partitioning strategies crossed with every config; each cell's
  // config carries the strategy via HyveConfig::set_partitioner (which
  // also annotates the label, keeping report rows distinct). The
  // default single-element axis leaves configs untouched.
  std::vector<PartitionerSpec> partitioners = {PartitionerSpec{}};
  std::vector<Algorithm> algorithms;
  std::vector<std::string> graphs;  // GraphCache keys

  // The full built-in grid of tools/hyve_experiments: the Fig. 16
  // accelerator configs × core algorithms × five datasets.
  static SweepSpec full_grid();

  std::size_t size() const {
    return configs.size() * partitioners.size() * algorithms.size() *
           graphs.size();
  }
};

struct SweepCell {
  std::size_t index = 0;  // position in expansion order
  HyveConfig config;
  Algorithm algorithm;
  std::string graph_key;
};

// Expands the grid into cells (validates that every axis is non-empty).
std::vector<SweepCell> expand(const SweepSpec& spec);

// Runs fn(i) for every i in [0, n) on a pool of `jobs` worker threads
// (0 = hardware concurrency) pulling from an atomic work queue, and
// rethrows the first failure after the pool drains. Results should be
// written into index-addressed slots so downstream rendering is
// independent of thread scheduling — this is the primitive behind
// SweepEngine::run and the bench harness's irregular (non
// config×algo×graph) grids.
void parallel_cells(std::size_t n, int jobs,
                    const std::function<void(std::size_t)>& fn);

// Runs one cell through the caches. Produces a report identical to
// HyveMachine(config).run(graph, algorithm). The functional phase is
// memoised through `functional`: cells that agree on (graph image,
// algorithm, partitioner, P, frontier mode) — e.g. a sweep over memory
// technologies — run the vertex program once and replay the outcome.
// When `trace` is non-null the run's phase spans land on tracks of
// process `trace_pid` (the engine uses one pid per cell so sweep traces
// stay disentangled).
RunReport run_cached(GraphCache& graphs, PartitionCache& partitions,
                     FunctionalCache& functional, const HyveConfig& config,
                     Algorithm algorithm, const std::string& graph_key,
                     obs::Trace* trace = nullptr,
                     std::uint32_t trace_pid = 1);

// Thread-safe, order-stable record writer. The engine calls write() in
// strict cell order; every record is round-tripped through
// run_report_from_json() before it is emitted, so a sweep can never
// produce output the tooling cannot read back.
class ResultSink {
 public:
  enum class Format { kJsonl, kCsv };
  static std::optional<Format> parse_format(const std::string& name);

  // `annotate_graph` appends "@<graph>" to the config label of emitted
  // records (the historical hyve_experiments convention).
  ResultSink(std::ostream& os, Format format, bool annotate_graph = true);

  void write(const SweepCell& cell, const RunReport& report);
  std::size_t records() const { return records_; }

 private:
  std::ostream& os_;
  Format format_;
  bool annotate_graph_;
  std::size_t records_ = 0;
};

struct SweepOptions {
  int jobs = 0;  // worker threads; 0 → hardware concurrency
  // Optional span sink. Each cell traces onto its own pid (cell index
  // + 1); timestamps are simulated ns, so the trace bytes are the same
  // for any `jobs` value.
  obs::Trace* trace = nullptr;
  // Called for each completed cell, in cell-index order under the same
  // lock as the ResultSink flush. Lets callers capture results as they
  // land (the benches' --json collector does, so a flight-recorded
  // partial report contains every cell finished so far).
  std::function<void(const SweepCell&, const RunReport&)> on_result;
};

struct SweepResult {
  SweepCell cell;
  RunReport report;
};

class SweepEngine {
 public:
  // Memoises functional phases across cells (see run_cached()) through
  // a FunctionalCache the engine owns and keeps for its lifetime, so a
  // second run() over the same cells replays every outcome.
  SweepEngine(GraphCache& graphs, PartitionCache& partitions)
      : graphs_(graphs),
        partitions_(partitions),
        owned_functional_(std::make_unique<FunctionalCache>()),
        functional_(*owned_functional_) {}
  // Memoises through a caller-owned cache instead, shared with other
  // engines or run_cached() calls (the benches' process-wide cache).
  SweepEngine(GraphCache& graphs, PartitionCache& partitions,
              FunctionalCache& functional)
      : graphs_(graphs), partitions_(partitions), functional_(functional) {}

  // The cache this engine memoises through (hits/misses for
  // --cache-stats).
  FunctionalCache& functional_cache() { return functional_; }

  // Runs every cell of `spec` and returns the reports in cell order. If
  // `sink` is non-null each result is also written to it, in cell order,
  // as soon as its prefix is complete. Rethrows the first cell failure
  // after the pool drains.
  std::vector<SweepResult> run(const SweepSpec& spec,
                               const SweepOptions& options = {},
                               ResultSink* sink = nullptr);

 private:
  GraphCache& graphs_;
  PartitionCache& partitions_;
  std::unique_ptr<FunctionalCache> owned_functional_;  // null if shared
  FunctionalCache& functional_;
};

}  // namespace hyve::exp
