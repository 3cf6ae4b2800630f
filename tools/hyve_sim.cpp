// hyve_sim — command-line driver for the HyVE simulator.
//
// Runs any algorithm on any graph (built-in dataset, SNAP edge-list file,
// or a fresh R-MAT) under any machine configuration, and prints the full
// time/energy/area report.
//
//   hyve_sim --dataset YT --algo pr
//   hyve_sim --graph web.txt --algo bfs --config sd
//   hyve_sim --graph big.hgb --graph-format blocked --ooc-window-mb 64
//   hyve_sim --rmat 100000x600000 --algo cc --sram-mb 4 --pus 16
//            --cell-bits 2 --no-sharing --no-power-gating --compare
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include <unistd.h>

#include "baselines/cpu.hpp"
#include "baselines/graphr.hpp"
#include "core/bench_json.hpp"
#include "core/machine.hpp"
#include "core/report_io.hpp"
#include "exp/cache.hpp"
#include "exp/sweep.hpp"
#include "graph/blocked_format.hpp"
#include "graph/blocked_reader.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "memmodel/area.hpp"
#include "obs/host_profiler.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/dram_timing.hpp"
#include "sim/memory_controller.hpp"
#include "sim/reram_timing.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

// First 8 bytes of the file, for sniffing the HyVEgrf2 magic under
// --graph-format auto (an unreadable file falls through to the loaders,
// which produce the proper error).
std::uint64_t sniff_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  return in.gcount() == sizeof magic ? magic : 0;
}

// --list-metrics: registers every instrument the simulator, the sweep
// engine, the caches, the host profiler and live telemetry can emit by
// exercising each subsystem once on tiny inputs, then prints the
// registry schema as a markdown table. The output is checked in as
// docs/METRICS.md and scripts/verify.sh diffs the two, so metric names
// cannot drift from the docs. Values are irrelevant — only the *name
// set* must be deterministic, and it is: the same subsystems register
// the same names on every host.
int run_metrics_census() {
  using namespace hyve;
  namespace fs = std::filesystem;
  obs::set_enabled(true);
  obs::host_profiler().start();

  const fs::path dir =
      fs::temp_directory_path() /
      ("hyve_metrics_census." + std::to_string(::getpid()));
  fs::create_directories(dir);

  // Graph generation: host.span.rmat.generate, host.count.rmat_edges.
  Graph tiny = generate_rmat(512, 2048, {}, 1);

  // Out-of-core streaming load through a deliberately tiny window over
  // many small blocks so faults AND evictions happen: the sim.ooc.*
  // family (the same reader path as --graph-format blocked).
  const std::string blocked = (dir / "census.hgb").string();
  RmatChunkOptions chunk;
  chunk.write.block_edges = 256;
  generate_rmat_blocked(blocked, 512, 2048, {}, 1, chunk);
  {
    BlockedReaderOptions reader_options;
    reader_options.window_bytes = units::KiB(4);
    BlockedGraphReader reader(blocked, reader_options);
    materialize(reader);
  }

  // The full accelerator-config grid × {PR, BFS} × every partitioning
  // strategy on the tiny graph: sim.pipeline/dram/reram/memctl/bpg/
  // partition.*, exp.sweep.*, exp.*_cache.* (per-strategy suffixes
  // included), host.span.machine.* / partition.build / sweep.cell.
  exp::GraphCache graphs;
  exp::PartitionCache partitions;
  graphs.add("census", std::move(tiny));
  exp::SweepSpec spec;
  spec.configs = fig16_accelerator_configs();
  spec.algorithms = {Algorithm::kPageRank, Algorithm::kBfs};
  spec.partitioners.clear();
  for (const char* name : {"interval", "hep:tau=2", "splitmerge:chunks=2"})
    spec.partitioners.push_back(*parse_partitioner(name));
  spec.graphs = {"census"};
  exp::SweepEngine engine(graphs, partitions);
  exp::SweepOptions options;
  options.jobs = 1;
  engine.run(spec, options);

  // One frontier-mode run so the pattern-reuse tallies register
  // (sim.kernel.blocks_skipped / edges_skipped), with a weighted
  // program so the on-demand weight-hash column's span does too.
  {
    exp::SweepSpec frontier_spec;
    HyveConfig frontier_config = HyveConfig::hyve_opt();
    frontier_config.frontier_block_skipping = true;
    frontier_spec.configs = {frontier_config};
    frontier_spec.algorithms = {Algorithm::kBfs, Algorithm::kSssp};
    frontier_spec.graphs = {"census"};
    engine.run(frontier_spec, options);
  }

  // Detailed-mode memory timing (driven by the timing tests/benches,
  // not the analytic machine walk): sim.memctl.*, sim.dram.*,
  // sim.reram.*.
  {
    const std::shared_ptr<const Graph> census_graph =
        graphs.acquire("census");
    const std::shared_ptr<const Partitioning> schedule =
        partitions.acquire("census", *census_graph, 4,
                           *parse_partitioner("interval"));
    const MemoryController controller(*schedule, 8, 4);
    const std::vector<MemRequest> scan = controller.full_edge_scan();
    DramTimingSim().run(scan);
    ReramTimingSim().run(scan);
  }

  // One live-telemetry session against a scratch path: the live.*
  // counters (interval far beyond the session, so only the start/stop
  // snapshots write).
  obs::LiveStatusOptions live;
  live.path = (dir / "census-live.json").string();
  live.interval = std::chrono::minutes(10);
  live.bench = "census";
  obs::live_telemetry().start(live);
  obs::live_telemetry().add_total_cells(1);
  obs::live_telemetry().beat("census");
  obs::live_telemetry().cell_done();
  obs::live_telemetry().stop("done");

  // host.wall_us, host.rate.*_per_s and the final memory sample.
  obs::host_profiler().stop();

  std::error_code ec;
  fs::remove_all(dir, ec);

  std::cout
      << "# Metrics reference\n"
      << "\n"
      << "Every metric the instrumented layers can register, by name "
         "and\n"
      << "instrument type. Generated by `hyve_sim --list-metrics`; "
         "do not\n"
      << "edit by hand — `scripts/verify.sh` regenerates this table "
         "and\n"
      << "fails when the checked-in copy is stale.\n"
      << "\n"
      << "Prefixes: `sim.*` are simulated (deterministic, rolled into "
         "bench\n"
      << "reports), `exp.*` are sweep-engine/cache effects (may depend "
         "on\n"
      << "worker scheduling), `host.*` are wall-clock host "
         "measurements,\n"
      << "`live.*` belong to the --live-status session. Histograms "
         "expand\n"
      << "to `.avg/.count/.max/.min/.p50/.p95/.p99/.sum` in dumps and\n"
      << "snapshots.\n"
      << "\n"
      << "| metric | type |\n"
      << "|---|---|\n";
  for (const auto& [name, kind] : obs::registry().schema())
    std::cout << "| `" << name << "` | " << kind << " |\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hyve;

  // Graph construction is deferred to after parsing so --graph-format,
  // --ooc-window-mb and --metrics apply regardless of flag order, and so
  // --host-profile times dataset and R-MAT generation too.
  std::optional<DatasetId> dataset;
  std::optional<std::pair<VertexId, std::uint64_t>> rmat;
  std::string graph_label = "?";
  std::string graph_path;
  std::string graph_format = "auto";
  std::size_t ooc_window_bytes = 0;
  Algorithm algo = Algorithm::kPageRank;
  HyveConfig config = HyveConfig::hyve_opt();
  // Applied after parsing so it composes with --config in any order.
  std::optional<PartitionerSpec> partitioner;
  bool compare = false;
  bool area = false;
  bool csv = false;
  bool metrics = false;
  bool list_metrics = false;
  bool host_profile = false;
  std::string trace_path;
  std::optional<obs::LiveStatusOptions> live_opts;

  cli::ArgParser parser(
      "hyve_sim",
      "simulate one algorithm on one graph under one machine config");
  parser.option("--dataset", "YT|WK|AS|LJ|TW", "built-in synthetic dataset",
                [&](const std::string& v) {
                  dataset = parse_dataset(v);
                  if (!dataset) parser.fail("unknown dataset " + v);
                  graph_label = dataset_name(*dataset);
                });
  parser.option("--graph", "PATH",
                "graph file (edge-list text, .bin cache, or HyVEgrf2 "
                "blocked; see --graph-format)",
                [&](const std::string& path) { graph_path = path; });
  parser.option("--graph-format", "auto|text|bin|blocked",
                "how to read --graph (default auto: sniff the magic)",
                [&](const std::string& v) {
                  if (v != "auto" && v != "text" && v != "bin" &&
                      v != "blocked")
                    parser.fail("unknown graph format " + v);
                  graph_format = v;
                });
  parser.option("--ooc-window-mb", "N",
                "decoded-block window budget for blocked graphs in MiB "
                "(0 = unbounded; default 0)",
                [&](const std::string& v) {
                  ooc_window_bytes = units::MiB(static_cast<std::uint64_t>(
                      cli::parse_int(parser, "--ooc-window-mb", v, 0,
                                     1 << 20)));
                });
  parser.option("--rmat", "VxE", "fresh R-MAT graph (e.g. 100000x600000)",
                [&](const std::string& spec) {
                  const auto x = spec.find('x');
                  if (x == std::string::npos)
                    parser.fail("--rmat expects VxE");
                  const auto v = cli::parse_int(parser, "--rmat vertices",
                                                spec.substr(0, x), 1);
                  const auto e = cli::parse_int(parser, "--rmat edges",
                                                spec.substr(x + 1), 1);
                  rmat.emplace(static_cast<VertexId>(v),
                               static_cast<std::uint64_t>(e));
                  graph_label = "rmat:" + spec;
                });
  parser.option("--algo", "bfs|cc|pr|sssp|spmv", "algorithm (default pr)",
                [&](const std::string& v) {
                  const auto a = parse_algorithm(v);
                  if (!a) parser.fail("unknown algorithm " + v);
                  algo = *a;
                });
  parser.option("--config", "opt|hyve|sd|dram|reram",
                "named variant (default opt)", [&](const std::string& v) {
                  const auto c = parse_config_label(v);
                  if (!c) parser.fail("unknown config " + v);
                  const HyveConfig base = config;
                  config = *c;
                  config.sram_bytes_per_pu =
                      config.has_onchip_vertex_memory()
                          ? base.sram_bytes_per_pu
                          : config.sram_bytes_per_pu;
                });
  parser.option("--partitioner", "interval|hep:tau=T|splitmerge:chunks=C",
                "partitioning strategy (default interval)",
                [&](const std::string& v) {
                  const auto p = parse_partitioner(v);
                  if (!p) parser.fail("unknown partitioner " + v);
                  partitioner = *p;
                });
  parser.option("--sram-mb", "N", "per-PU SRAM capacity (default 2)",
                [&](const std::string& v) {
                  config.sram_bytes_per_pu = units::MiB(
                      static_cast<std::uint64_t>(
                          cli::parse_int(parser, "--sram-mb", v, 0, 1 << 20)));
                });
  parser.option("--pus", "N", "processing units (default 8)",
                [&](const std::string& v) {
                  config.num_pus = static_cast<int>(
                      cli::parse_int(parser, "--pus", v, 1, 1 << 20));
                });
  parser.option("--cell-bits", "N", "ReRAM cell bits 1..3 (default 1)",
                [&](const std::string& v) {
                  config.reram.cell_bits = static_cast<int>(
                      cli::parse_int(parser, "--cell-bits", v, 1, 3));
                });
  parser.flag("--no-sharing", "disable inter-PU data sharing",
              [&] { config.data_sharing = false; });
  parser.flag("--no-power-gating", "disable bank-level power gating",
              [&] { config.power_gating = false; });
  parser.flag("--compare", "also run GraphR and the CPU baselines", &compare);
  parser.flag("--area", "print the silicon area estimate", &area);
  parser.flag("--csv", "machine-readable breakdown", &csv);
  parser.flag("--metrics",
              "dump the metrics registry to stderr as sorted key=value "
              "lines",
              &metrics);
  parser.flag("--list-metrics",
              "exercise every instrumented subsystem on tiny inputs and "
              "print the full metric name/type table (docs/METRICS.md), "
              "then exit",
              &list_metrics);
  parser.flag("--host-profile",
              "profile the host process: wall-clock spans, RSS sampling "
              "and stage rates as host.* metrics (and a wall-clock trace "
              "track with --trace)",
              &host_profile);
  parser.option("--trace", "PATH",
                "write a Chrome trace-event JSON (chrome://tracing, "
                "Perfetto) of the run to PATH",
                [&](const std::string& v) { trace_path = v; });
  parser.option("--live-status", "PATH[,interval_ms[,stall_ms]]",
                "publish a live status JSON snapshot (progress, "
                "heartbeats, metrics, RSS) to PATH on the interval "
                "(default 500 ms); watch with hyve_top",
                [&](const std::string& v) {
                  const auto live = obs::parse_live_status(v);
                  if (!live) parser.fail("bad --live-status spec " + v);
                  live_opts = *live;
                });

  try {
    parser.parse(argc, argv);

    if (list_metrics) return run_metrics_census();
    const int sources = static_cast<int>(dataset.has_value()) +
                        static_cast<int>(rmat.has_value()) +
                        static_cast<int>(!graph_path.empty());
    if (sources == 0) parser.fail("no input graph (--dataset/--graph/--rmat)");
    if (sources > 1) parser.fail("choose one of --dataset/--graph/--rmat");

    // Enable telemetry and start the profiler before the graph is built
    // so the sim.ooc.* window counters cover the streaming load and
    // host.wall_us covers dataset/R-MAT generation.
    if (metrics || host_profile || live_opts) obs::set_enabled(true);
    if (live_opts) {
      live_opts->bench = "hyve_sim";
      obs::live_telemetry().start(*live_opts);
      obs::live_telemetry().add_total_cells(1);
    }
    std::shared_ptr<obs::Trace> trace;
    if (!trace_path.empty()) {
      trace = std::make_shared<obs::Trace>();
      add_attribution_metadata(*trace, argc, argv);
    }
    if (host_profile) obs::host_profiler().start(trace.get());

    // Interrupting a single long run still saves a loadable truncated
    // trace and a final "interrupted" status snapshot.
    if (trace || live_opts) {
      const bool profiling = host_profile;
      const std::string saved_trace_path = trace_path;
      obs::install_flight_recorder(
          [trace, saved_trace_path, profiling](int) {
            if (obs::live_telemetry().enabled())
              obs::live_telemetry().stop("interrupted");
            if (profiling) obs::host_profiler().stop();
            if (trace)
              trace->write_file_atomic(saved_trace_path,
                                       /*truncated=*/true);
            if (obs::enabled()) obs::registry().dump(std::cerr);
          });
    }

    // The dataset store keeps its graphs for the process; other sources
    // are built into `owned`.
    std::optional<Graph> owned;
    const Graph* graph = nullptr;
    if (dataset) {
      graph = &dataset_graph(*dataset);
    } else if (rmat) {
      owned = generate_rmat(rmat->first, rmat->second, {}, 1);
    } else {
      const bool is_blocked =
          graph_format == "blocked" ||
          (graph_format == "auto" &&
           sniff_magic(graph_path) == blocked::kMagic);
      if (is_blocked) {
        BlockedReaderOptions reader_options;
        reader_options.window_bytes = ooc_window_bytes;
        BlockedGraphReader reader(graph_path, reader_options);
        // Materialise through the bounded window: peak decoded residency
        // stays within --ooc-window-mb (reported as
        // sim.ooc.window_peak_bytes) while the simulator gets the same
        // Graph the in-memory path builds — reports are byte-identical.
        owned = materialize(reader);
      } else if (graph_format == "bin") {
        owned = load_graph_binary(graph_path);
      } else if (graph_format == "text") {
        owned = load_edge_list_text(graph_path);
      } else {
        owned = load_graph_auto(graph_path);
      }
      graph_label = graph_path;
    }
    if (owned) graph = &*owned;

    if (partitioner) config.set_partitioner(*partitioner);

    const HyveMachine machine(config);
    const RunReport r = machine.run(*graph, algo, trace.get());
    // Same guarantee as the sweep engine's ResultSink: hyve_sim can never
    // emit a report the downstream tooling cannot parse back.
    validate_report_round_trip(r);
    obs::live_telemetry().cell_done();

    // Stop before the write so host.wall_us and the final RSS sample
    // land in the trace and the --metrics dump.
    if (host_profile) obs::host_profiler().stop();
    if (trace) trace->write_file(trace_path);

    if (csv) {
      Table t({"graph", "algo", "config", "P", "iterations", "time_ns",
               "energy_pj", "mteps", "mteps_per_watt"});
      t.add_row({graph_label, r.algorithm, r.config_label,
                 std::to_string(r.num_intervals),
                 std::to_string(r.iterations), Table::num(r.exec_time_ns, 0),
                 Table::num(r.total_energy_pj(), 0), Table::num(r.mteps(), 1),
                 Table::num(r.mteps_per_watt(), 1)});
      t.print_csv(std::cout);
    } else {
      std::cout << graph_label << ": V=" << graph->num_vertices()
                << " E=" << graph->num_edges() << "\n"
                << r.config_label << " running " << r.algorithm << ": P="
                << r.num_intervals << ", " << r.iterations << " iterations\n"
                << "  time    " << Table::num(r.exec_time_ns / 1e6, 3)
                << " ms  (" << Table::num(r.mteps(), 0) << " MTEPS)\n"
                << "  energy  " << Table::num(r.total_energy_pj() / 1e6, 1)
                << " uJ  (" << Table::num(r.mteps_per_watt(), 0)
                << " MTEPS/W)\n"
                << "  memory share "
                << Table::num(100.0 * r.energy.memory_pj() /
                                  r.total_energy_pj(),
                              1)
                << "%\n";
    }

    if (compare) {
      Table t({"system", "time (ms)", "energy (uJ)", "MTEPS/W"});
      t.add_row({r.config_label, Table::num(r.exec_time_ns / 1e6, 3),
                 Table::num(r.total_energy_pj() / 1e6, 1),
                 Table::num(r.mteps_per_watt(), 0)});
      const GraphRReport gr = GraphRModel().run(*graph, algo);
      t.add_row({"GraphR", Table::num(gr.exec_time_ns / 1e6, 3),
                 Table::num(gr.total_energy_pj() / 1e6, 1),
                 Table::num(gr.mteps_per_watt(), 0)});
      for (const CpuBaseline kind :
           {CpuBaseline::kNaive, CpuBaseline::kOptimized}) {
        const CpuReport cr = CpuModel(kind).run(*graph, algo);
        t.add_row({cr.config_label, Table::num(cr.exec_time_ns / 1e6, 3),
                   Table::num(cr.energy_pj / 1e6, 1),
                   Table::num(cr.mteps_per_watt(), 0)});
      }
      std::cout << '\n';
      t.print(std::cout);
    }

    if (area) {
      AreaInputs in;
      in.num_pus = config.num_pus;
      in.sram_bytes_per_pu = config.sram_bytes_per_pu;
      in.edge_reram = config.reram;
      in.edge_capacity_bytes = graph->num_edges() * 8;
      in.power_gating = config.power_gating;
      const AreaBreakdown a = estimate_area(in);
      std::cout << "\narea estimate (22 nm):\n"
                << "  accelerator " << Table::num(a.accelerator_mm2(), 2)
                << " mm^2 (SRAM " << Table::num(a.sram_mm2, 2) << ", PUs "
                << Table::num(a.pu_mm2, 2) << ", router "
                << Table::num(a.router_mm2, 2) << ", controller "
                << Table::num(a.controller_mm2, 2) << ")\n"
                << "  edge memory " << a.edge_chips << " chip(s) x "
                << Table::num(a.edge_chip_mm2, 1) << " mm^2, power gates +"
                << Table::num(100.0 * a.power_gate_overhead(), 2) << "%\n";
    }

    // The full dump carries the host.* lines; without it --host-profile
    // prints them on its own.
    if (metrics)
      obs::registry().dump(std::cerr);
    else if (host_profile)
      obs::HostProfiler::print_summary(std::cerr);
    if (obs::live_telemetry().enabled()) obs::live_telemetry().stop("done");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
