// Kernel-regression microbenchmarks: every vertex program through every
// dispatch path the functional engine has — one case per graph family x
// algorithm x {per-edge, block-SoA, SoA+reuse} over shared interval-block
// schedules.
//
//   per-edge   — one virtual process_edge() call per edge of each
//                block_soa() view (the scalar reference, kept as the
//                honesty baseline)
//   block-SoA  — one process_block_soa() call per block over the
//                partitioning's src/dst(/weight-hash) columns
//   SoA+reuse  — the full frontier walk (run_frontier) with per-iteration
//                pattern reuse, i.e. what sweeps actually execute
//
// The dense paths must produce identical iteration counts, write totals
// and a bit-identical fingerprint of the final vertex state, and the
// frontier walk the same fingerprint — the binary aborts otherwise, so a
// kernel that drifts from the per-edge reference cannot time anything.
// It also aborts when a traversal writes no more than 1% of the
// vertices: such a case would time skipped no-op blocks, not kernels.
// The headline is the geomean speedup of the SoA paths over the per-edge
// reference.
//
// Under --smoke each case still runs once (the equivalence checks stay),
// but the reported seconds are deterministic work proxies (edges the host
// actually streamed / 1e9), so stdout and --json are byte-identical
// across runs and --jobs values. These are engineering benchmarks for
// the library itself; the per-table/figure reproductions live in the
// bench_table*/bench_fig* binaries.
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/frontier.hpp"
#include "algos/gas.hpp"
#include "algos/pagerank.hpp"
#include "algos/spmv.hpp"
#include "algos/sssp.hpp"
#include "bench/common.hpp"
#include "graph/generators.hpp"

namespace {

using namespace hyve;
using clock_type = std::chrono::steady_clock;

constexpr std::uint32_t kNumIntervals = 64;

// FNV-1a over the raw bytes of a program's final vertex state. Doubles
// are hashed bit-exactly: the layouts preserve edge order (and the
// frontier walk only skips provably write-free blocks), so even the
// floating-point programs must match to the last bit.
template <typename T>
std::uint64_t fingerprint(const std::vector<T>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const T& value : values) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// The vertex BfsProgram::kAutoRoot resolves to (the highest out-degree
// one), so REACH and WIDEST start where BFS and SSSP do.
VertexId auto_root(const Graph& g) {
  BfsProgram bfs;
  bfs.init(g);
  return bfs.root();
}

struct ProgramCase {
  const char* label;
  // Traversals run on each family's traversal image (see main), the
  // all-vertex programs (PR, SpMV) on the graph as generated.
  bool traversal;
  std::unique_ptr<VertexProgram> (*make)(const Graph&);
  std::uint64_t (*state_fingerprint)(const VertexProgram&);
};

const ProgramCase kPrograms[] = {
    {"BFS", true, [](const Graph&) { return make_program(Algorithm::kBfs); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const BfsProgram&>(p).distances());
     }},
    {"CC", true, [](const Graph&) { return make_program(Algorithm::kCc); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const CcProgram&>(p).labels());
     }},
    {"PR", false,
     [](const Graph&) { return make_program(Algorithm::kPageRank); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const PageRankProgram&>(p).ranks());
     }},
    {"SSSP", true,
     [](const Graph&) { return make_program(Algorithm::kSssp); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const SsspProgram&>(p).distances());
     }},
    {"SpMV", false,
     [](const Graph&) { return make_program(Algorithm::kSpmv); },
     [](const VertexProgram& p) {
       return fingerprint(dynamic_cast<const SpmvProgram&>(p).result());
     }},
    {"REACH", true,
     [](const Graph& g) -> std::unique_ptr<VertexProgram> {
       return std::make_unique<GasProgram<std::uint32_t>>(
           make_reachability_program(auto_root(g)));
     },
     [](const VertexProgram& p) {
       return fingerprint(
           dynamic_cast<const GasProgram<std::uint32_t>&>(p).values());
     }},
    {"WIDEST", true,
     [](const Graph& g) -> std::unique_ptr<VertexProgram> {
       return std::make_unique<GasProgram<std::uint32_t>>(
           make_widest_path_program(auto_root(g)));
     },
     [](const VertexProgram& p) {
       return fingerprint(
           dynamic_cast<const GasProgram<std::uint32_t>&>(p).values());
     }},
};
constexpr std::size_t kNumPrograms = std::size(kPrograms);

enum class Layout { kPerEdge, kBlockSoa, kSoaReuse };
constexpr Layout kLayouts[] = {Layout::kPerEdge, Layout::kBlockSoa,
                               Layout::kSoaReuse};
constexpr std::size_t kNumLayouts = std::size(kLayouts);

const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kPerEdge: return "per-edge";
    case Layout::kBlockSoa: return "block-SoA";
    case Layout::kSoaReuse: return "SoA+reuse";
  }
  return "?";
}

struct RunOutcome {
  std::uint32_t iterations = 0;
  std::uint64_t writes = 0;          // process_edge() returned true
  std::uint64_t edges_streamed = 0;  // edges the host actually visited
  std::uint64_t checksum = 0;        // fingerprint of the final state
};

// Runs `program` to convergence through one layout's dispatch path, in
// the same destination-major block order for all of them. SoA+reuse is
// the real frontier walk: its edges_streamed subtracts both the blocks
// interval skipping never visited and the ones pattern reuse replayed.
RunOutcome run_layout(const Graph& g, const Partitioning& part,
                      VertexProgram& program, Layout layout) {
  RunOutcome out;
  if (layout == Layout::kSoaReuse) {
    const FrontierTrace trace = run_frontier(g, program, part);
    out.iterations = trace.result.iterations;
    out.writes = trace.result.destination_writes;
    out.edges_streamed = trace.result.edges_traversed - trace.edges_skipped;
    return out;
  }
  program.init(g);
  bool more = true;
  while (more && out.iterations < program.max_iterations()) {
    for (std::uint32_t y = 0; y < kNumIntervals; ++y) {
      for (std::uint32_t x = 0; x < kNumIntervals; ++x) {
        switch (layout) {
          case Layout::kPerEdge: {
            const EdgeBlockSoA block = part.block_soa(x, y);
            for (std::size_t i = 0; i < block.size(); ++i)
              out.writes += program.process_edge(block.edge(i)) ? 1 : 0;
            break;
          }
          case Layout::kBlockSoa:
            out.writes += program.process_block_soa(part.block_soa(x, y));
            break;
          case Layout::kSoaReuse: break;  // handled above
        }
      }
    }
    out.edges_streamed += g.num_edges();
    ++out.iterations;
    more = program.end_iteration(out.iterations);
  }
  return out;
}

struct Cell {
  RunOutcome outcome;
  double seconds = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_micro",
      "kernel-regression suite: algorithm x edge-layout grid with "
      "cross-layout equivalence checks");
  bench::header("Kernels",
                "Vertex-program kernels per edge layout (identical results "
                "enforced)");

  // Two synthetic families, each with one schedule per image, shared by
  // every cell: Erdős–Rényi at mean degree 6 (no hubs, a scattered
  // frontier that narrows over ~5 passes — the regime block-level
  // pattern reuse targets) and Barabási–Albert (heavy-tail, hub-rooted
  // traversals that converge in a burst and then coast on clean
  // blocks). BA edges point from newer to older vertices, so a
  // traversal from the hub reaches almost nothing; traversals run on
  // symmetrized(BA) instead. Smaller under --smoke so the determinism
  // ctest stays quick. The weight-hash column and the reuse index are
  // forced here, outside any stopwatch — sweeps amortise them across a
  // whole grid the same way.
  struct Image {
    Graph graph;
    Partitioning part;
  };
  struct GraphCase {
    const char* label;  // table column
    std::string key;    // --json graph key
    std::shared_ptr<const Image> all;        // PR, SpMV
    std::shared_ptr<const Image> traversal;  // BFS/CC/SSSP/REACH/WIDEST
  };
  const auto make_image = [](Graph g) {
    Partitioning part(g, kNumIntervals);
    part.edge_columns().ensure_weight_hashes();
    part.source_block_index();
    return std::make_shared<const Image>(Image{std::move(g), std::move(part)});
  };
  const VertexId num_vertices = opts.smoke ? 20000 : 100000;
  const std::string v = std::to_string(num_vertices);
  const auto er = make_image(
      generate_erdos_renyi(num_vertices, 3ull * num_vertices, 0xBE7C));
  Graph ba = generate_barabasi_albert(num_vertices, 6, 0xBE7C);
  const auto ba_sym = make_image(symmetrized(ba));
  std::vector<GraphCase> graphs;
  graphs.push_back({"er", "er-" + v + "x" + std::to_string(3 * num_vertices),
                    er, er});
  graphs.push_back({"ba", "ba-" + v + "x6", make_image(std::move(ba)),
                    ba_sym});

  const std::size_t cells_per_graph = kNumPrograms * kNumLayouts;
  const auto cells = bench::run_cells(
      graphs.size() * cells_per_graph, opts, [&](std::size_t i) {
        const GraphCase& gc = graphs[i / cells_per_graph];
        const ProgramCase& pc = kPrograms[(i % cells_per_graph) / kNumLayouts];
        const Image& image = pc.traversal ? *gc.traversal : *gc.all;
        const Graph& graph = image.graph;
        const Partitioning& part = image.part;
        const Layout layout = kLayouts[i % kNumLayouts];
        Cell cell;
        if (opts.smoke) {
          const auto program = pc.make(graph);
          cell.outcome = run_layout(graph, part, *program, layout);
          cell.outcome.checksum = pc.state_fingerprint(*program);
          cell.seconds =
              static_cast<double>(cell.outcome.edges_streamed) / 1e9;
          return cell;
        }
        // Best of three, stopwatch serialised against other cells so
        // --jobs > 1 cannot perturb the measurement.
        cell.seconds = 1e100;
        const std::scoped_lock timing(bench::timing_mutex());
        for (int rep = 0; rep < 3; ++rep) {
          const auto program = pc.make(graph);
          const auto start = clock_type::now();
          cell.outcome = run_layout(graph, part, *program, layout);
          const auto stop = clock_type::now();
          cell.outcome.checksum = pc.state_fingerprint(*program);
          cell.seconds = std::min(
              cell.seconds, std::chrono::duration<double>(stop - start).count());
        }
        return cell;
      });

  // The regression gate: the block-SoA path must agree exactly with the
  // per-edge reference — iteration count, write total and final-state
  // fingerprint. The frontier walk is held to the fingerprint only:
  // skipping a block forfeits that pass's in-pass propagation through
  // it, so it may take an extra iteration (with correspondingly fewer
  // intermediate writes) on its way to the bit-identical final state.
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const std::uint64_t vertices = graphs[g].traversal->graph.num_vertices();
    for (std::size_t a = 0; a < kNumPrograms; ++a) {
      const std::size_t base = g * cells_per_graph + a * kNumLayouts;
      const RunOutcome& ref = cells[base].outcome;
      HYVE_CHECK_MSG(!kPrograms[a].traversal || ref.writes * 100 > vertices,
                     kPrograms[a].label << " on " << graphs[g].label
                                        << " is degenerate: " << ref.writes
                                        << " writes for " << vertices
                                        << " vertices");
      for (std::size_t l = 1; l < kNumLayouts; ++l) {
        const RunOutcome& got = cells[base + l].outcome;
        const bool dense = kLayouts[l] != Layout::kSoaReuse;
        HYVE_CHECK_MSG((!dense || (got.iterations == ref.iterations &&
                                   got.writes == ref.writes)) &&
                           got.checksum == ref.checksum,
                       kPrograms[a].label
                           << " " << layout_name(kLayouts[l]) << " on "
                           << graphs[g].label << " diverged from per-edge: "
                           << got.iterations << "/" << got.writes << "/"
                           << got.checksum << " vs " << ref.iterations << "/"
                           << ref.writes << "/" << ref.checksum);
      }
    }
  }

  Table table({"graph", "algorithm", "layout", "iters", "Medges streamed",
               "ms", "vs per-edge"});
  std::vector<double> soa_ratios;
  std::vector<double> reuse_ratios;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t a = 0; a < kNumPrograms; ++a) {
      const std::size_t base = g * cells_per_graph + a * kNumLayouts;
      const double ref_s = cells[base].seconds;  // kLayouts[0] = per-edge
      for (std::size_t l = 0; l < kNumLayouts; ++l) {
        const Cell& cell = cells[base + l];
        const double ratio = ref_s / cell.seconds;
        table.add_row({graphs[g].label, kPrograms[a].label,
                       layout_name(kLayouts[l]),
                       std::to_string(cell.outcome.iterations),
                       Table::num(static_cast<double>(
                                      cell.outcome.edges_streamed) /
                                      1e6,
                                  2),
                       Table::num(cell.seconds * 1e3, 2),
                       Table::num(ratio, 2) + "x"});
        if (kLayouts[l] == Layout::kBlockSoa) soa_ratios.push_back(ratio);
        if (kLayouts[l] == Layout::kSoaReuse) reuse_ratios.push_back(ratio);
      }
    }
  }
  table.print(std::cout);

  // Recorded so --json runs land in the perf history: one synthetic run
  // per cell whose exec time is the kernel measurement (all of it
  // attributed to the process phase; there is no simulated machine here).
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    RunReport report;
    report.config_label =
        std::string("kernel:") + layout_name(kLayouts[i % kNumLayouts]);
    report.algorithm = kPrograms[(i % cells_per_graph) / kNumLayouts].label;
    report.num_intervals = kNumIntervals;
    report.iterations = cell.outcome.iterations;
    report.edges_traversed = cell.outcome.edges_streamed;
    report.exec_time_ns = cell.seconds * 1e9;
    report.phases.time(Phase::kProcess) = report.exec_time_ns;
    bench::record_report(graphs[i / cells_per_graph].key, report);
  }

  bench::paper_note(
      "engineering suite, not a paper figure: the functional engine must "
      "get faster without changing a single result");
  bench::measured_note(
      "geomean vs the per-edge reference: block-SoA " +
      Table::num(bench::geomean(soa_ratios), 2) + "x, SoA+reuse " +
      Table::num(bench::geomean(reuse_ratios), 2) + "x" +
      (opts.smoke ? " (smoke: work proxies, not wall clock)" : ""));
  opts.finish();
  return 0;
}
