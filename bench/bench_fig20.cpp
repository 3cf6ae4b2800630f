// Fig. 20: dynamic-graph throughput (million requests/s, single thread)
// for HyVE's reserved-slack layout vs the same strategy on GraphR's
// 8x8-vertex block grid, under the §7.4.2 request mix (45% add edge,
// 45% delete edge, 5% add vertex, 5% delete vertex).
//
// Paper: HyVE sustains up to 46.98 M edge changes/s (42.43 M average),
// 8.04x more than GraphR.
//
// Under --smoke the stores still apply a reduced request stream (the
// correctness checks inside DynamicGraphStore stay live), but the
// reported rates are deterministic per-layout proxies (direct-indexed
// slack vs hashed block directory), not wall-clock measurements.
#include <algorithm>
#include <iostream>

#include "bench/common.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/requests.hpp"

int main(int argc, char** argv) {
  using namespace hyve;
  const bench::Options opts = bench::parse_args(
      argc, argv, "bench_fig20",
      "Fig. 20: dynamic-graph throughput, HyVE layout vs GraphR grid");
  bench::header("Fig. 20", "Dynamic graph throughput (single thread)");

  const std::uint64_t kRequests = opts.smoke ? 20000 : 400000;
  // Deterministic --smoke proxies: ns per request for the direct-indexed
  // slack layout vs the hashed 8x8 block directory.
  constexpr double kSmokeHyveNsPerReq = 25.0;
  constexpr double kSmokeGraphrNsPerReq = 200.0;

  struct Cell {
    double hyve_mps;
    double graphr_mps;
  };
  const std::vector<Cell> cells = bench::run_cells(
      opts.datasets.size(), opts, [&](std::size_t i) {
        const Graph& g = dataset_graph(opts.datasets[i]);
        const auto requests = generate_requests(g, kRequests, {}, 0xD15C0 + 7);

        DynamicGraphOptions hyve_opts;
        hyve_opts.num_intervals =
            HyveMachine(HyveConfig::hyve_opt()).choose_num_intervals(g, 4);
        DynamicGraphOptions graphr_opts;
        graphr_opts.num_intervals = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>((g.num_vertices() + 7) / 8));
        graphr_opts.hashed_block_directory = true;

        if (opts.smoke) {
          DynamicGraphStore hyve_store(g, hyve_opts);
          DynamicGraphStore graphr_store(g, graphr_opts);
          apply_requests(hyve_store, requests);
          apply_requests(graphr_store, requests);
          return Cell{1e3 / kSmokeHyveNsPerReq, 1e3 / kSmokeGraphrNsPerReq};
        }

        // Stopwatch serialised against other cells so --jobs > 1 cannot
        // perturb the single-thread measurement. Each layout's store is
        // built once; every rep restores it from that pristine copy (a
        // copy keeps each block's slack reservation), so the reps time
        // request application, not construction.
        const std::scoped_lock timing(bench::timing_mutex());
        auto best_rate = [&](const DynamicGraphOptions& layout) {
          const DynamicGraphStore pristine(g, layout);
          DynamicGraphStore store = pristine;
          double best = 0;
          for (int rep = 0; rep < 3; ++rep) {
            if (rep > 0) store = pristine;
            best = std::max(
                best, apply_requests(store, requests).millions_per_second());
          }
          return best;
        };
        return Cell{best_rate(hyve_opts), best_rate(graphr_opts)};
      });

  Table table({"dataset", "HyVE (M req/s)", "GraphR (M req/s)",
               "HyVE/GraphR"});
  std::vector<double> ratios;
  std::vector<double> hyve_rates;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    table.add_row({dataset_name(opts.datasets[i]),
                   Table::num(cell.hyve_mps, 2),
                   Table::num(cell.graphr_mps, 2),
                   Table::num(cell.hyve_mps / cell.graphr_mps, 2) + "x"});
    ratios.push_back(cell.hyve_mps / cell.graphr_mps);
    hyve_rates.push_back(cell.hyve_mps);
  }
  table.print(std::cout);
  const auto [slowest, fastest] =
      std::minmax_element(hyve_rates.begin(), hyve_rates.end());
  const double average_ratio = bench::geomean(ratios);
  const bool faster_everywhere = std::all_of(
      ratios.begin(), ratios.end(), [](double r) { return r > 1.0; });
  std::cout << "average HyVE/GraphR: " << Table::num(average_ratio, 2)
            << "x; best HyVE rate: " << Table::num(*fastest, 2)
            << " M req/s\n";

  bench::paper_note("up to 46.98 M edges/s for HyVE, 8.04x over GraphR");
  bench::measured_note(
      "HyVE applies " + Table::num(*slowest, 2) + "-" +
      Table::num(*fastest, 2) + " M req/s, " + Table::num(average_ratio, 2) +
      "x the hashed 8x8 grid on average; faster on every dataset: " +
      (faster_everywhere ? "yes" : "NO") +
      (opts.smoke ? " (--smoke rates are fixed proxies)"
                  : " (absolute rates depend on the host CPU)"));
  opts.finish();
  return 0;
}
