#include "algos/runner.hpp"

#include <cctype>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/pagerank.hpp"
#include "algos/spmv.hpp"
#include "algos/sssp.hpp"
#include "obs/live.hpp"
#include "util/check.hpp"

namespace hyve {

std::unique_ptr<VertexProgram> make_program(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBfs: return std::make_unique<BfsProgram>();
    case Algorithm::kCc: return std::make_unique<CcProgram>();
    case Algorithm::kPageRank: return std::make_unique<PageRankProgram>();
    case Algorithm::kSssp: return std::make_unique<SsspProgram>();
    case Algorithm::kSpmv: return std::make_unique<SpmvProgram>();
  }
  HYVE_CHECK(false);
  __builtin_unreachable();
}

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBfs: return "BFS";
    case Algorithm::kCc: return "CC";
    case Algorithm::kPageRank: return "PR";
    case Algorithm::kSssp: return "SSSP";
    case Algorithm::kSpmv: return "SpMV";
  }
  return "?";
}

std::optional<Algorithm> parse_algorithm(const std::string& name) {
  auto lower = [](const std::string& s) {
    std::string out = s;
    for (char& c : out)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
  };
  const std::string needle = lower(name);
  for (const Algorithm a : kAllAlgorithms)
    if (needle == lower(algorithm_name(a))) return a;
  return std::nullopt;
}

FunctionalResult run_functional(const Graph& graph, VertexProgram& program,
                                const Partitioning* schedule) {
  program.init(graph);
  FunctionalResult result;

  // Structure-of-arrays hot path: a scheduled run streams the
  // partitioning's own columns, the schedule-less path the graph's
  // memoized columns. Weighted programs get the weight-hash column
  // built on first use and shared by every later run.
  std::shared_ptr<const EdgeColumns> whole_graph;
  if (schedule == nullptr) whole_graph = graph.edge_columns_shared();
  if (program.reads_edge_weights())
    (schedule != nullptr ? schedule->edge_columns() : *whole_graph)
        .ensure_weight_hashes();

  auto run_pass = [&] {
    if (schedule != nullptr) {
      const std::uint32_t p = schedule->num_intervals();
      // Column-major (destination-major) scan, the Algorithm 2 order.
      for (std::uint32_t y = 0; y < p; ++y) {
        for (std::uint32_t x = 0; x < p; ++x)
          result.destination_writes +=
              program.process_block_soa(schedule->block_soa(x, y));
      }
    } else {
      result.destination_writes +=
          program.process_block_soa(whole_graph->all());
    }
    result.edges_traversed += graph.num_edges();
  };

  // The functional passes are where a big graph spends its host time;
  // beating per pass keeps the live stall watchdog quiet.
  obs::LiveTelemetry& live = obs::live_telemetry();
  bool more = true;
  while (more && result.iterations < program.max_iterations()) {
    live.beat("functional.pass");
    run_pass();
    ++result.iterations;
    more = program.end_iteration(result.iterations);
  }
  return result;
}

}  // namespace hyve
