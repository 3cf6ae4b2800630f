// hyve_experiments — batch experiment driver emitting JSON lines.
//
// Runs a (configs x algorithms x datasets) grid on the src/exp sweep
// engine — a worker pool sharing one graph/partition cache — and writes
// one record per run to stdout, for plotting scripts and CI dashboards:
//
//   hyve_experiments                      # full grid, built-in datasets
//   hyve_experiments --jobs 8             # 8 worker threads, same output
//   hyve_experiments --datasets YT,WK     # subset
//   hyve_experiments --algos bfs,pr --configs opt,sd
//   hyve_experiments --partitioner interval,hep,splitmerge
//   hyve_experiments --frontier           # add the block-skipping variant
//   hyve_experiments --format csv         # spreadsheet-friendly table
//   hyve_experiments --cache-stats        # cache hits/builds to stderr
//
// Each vertex program runs once per (graph image, algorithm, P,
// frontier mode) and is replayed for every memory config. Output is
// deterministic and order-stable for any --jobs value.
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "core/bench_json.hpp"
#include "core/report_io.hpp"
#include "exp/sweep.hpp"
#include "graph/datasets.hpp"
#include "obs/host_profiler.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace hyve;

  exp::SweepSpec spec = exp::SweepSpec::full_grid();
  bool add_frontier = false;
  exp::SweepOptions options;
  options.jobs = 1;  // historical default: serial
  auto format = exp::ResultSink::Format::kJsonl;
  bool metrics = false;
  bool cache_stats = false;
  bool host_profile = false;
  std::string trace_path;
  std::optional<obs::LiveStatusOptions> live_opts;

  cli::ArgParser parser("hyve_experiments",
                        "run a (configs x algorithms x datasets) grid and "
                        "emit one record per run");
  parser.option("--datasets", "YT,WK,...", "datasets to sweep (default all)",
                [&](const std::string& v) {
                  spec.graphs.clear();
                  for (const std::string& name : cli::split_csv(v)) {
                    const auto id = parse_dataset(name);
                    if (!id) parser.fail("unknown dataset " + name);
                    spec.graphs.push_back(dataset_name(*id));
                  }
                });
  parser.option("--algos", "bfs,cc,pr,sssp,spmv",
                "algorithms to sweep (default bfs,cc,pr)",
                [&](const std::string& v) {
                  spec.algorithms.clear();
                  for (const std::string& name : cli::split_csv(v)) {
                    const auto algo = parse_algorithm(name);
                    if (!algo) parser.fail("unknown algorithm " + name);
                    spec.algorithms.push_back(*algo);
                  }
                });
  parser.option("--configs", "opt,hyve,sd,dram,reram",
                "machine configs to sweep (default all five)",
                [&](const std::string& v) {
                  spec.configs.clear();
                  for (const std::string& name : cli::split_csv(v)) {
                    const auto cfg = parse_config_label(name);
                    if (!cfg) parser.fail("unknown config " + name);
                    spec.configs.push_back(*cfg);
                  }
                });
  parser.option(
      "--partitioner", "interval,hep:tau=2,splitmerge:chunks=8",
      "partitioning strategies crossed with every config (default interval)",
      [&](const std::string& v) {
        spec.partitioners.clear();
        for (const std::string& name : cli::split_csv(v)) {
          const auto p = parse_partitioner(name);
          if (!p) parser.fail("unknown partitioner " + name);
          spec.partitioners.push_back(*p);
        }
      });
  parser.flag("--frontier", "add the block-skipping variant", &add_frontier);
  parser.option("--jobs", "N",
                "worker threads (0 = hardware concurrency; default 1)",
                [&](const std::string& v) {
                  options.jobs = static_cast<int>(
                      cli::parse_int(parser, "--jobs", v, 0, 4096));
                });
  parser.option("--format", "jsonl|csv", "output format (default jsonl)",
                [&](const std::string& v) {
                  const auto f = exp::ResultSink::parse_format(v);
                  if (!f) parser.fail("unknown format " + v);
                  format = *f;
                });
  parser.flag("--cache-stats",
              "print graph/partition/functional cache statistics to stderr",
              &cache_stats);
  parser.flag("--metrics",
              "dump the metrics registry to stderr as sorted key=value "
              "lines",
              &metrics);
  parser.flag("--host-profile",
              "profile the host process: wall-clock spans, RSS sampling "
              "and stage rates as host.* metrics (and a wall-clock trace "
              "track with --trace)",
              &host_profile);
  parser.option("--trace", "PATH",
                "write a Chrome trace-event JSON of the sweep to PATH "
                "(one pid per cell)",
                [&](const std::string& v) { trace_path = v; });
  parser.option("--live-status", "PATH[,interval_ms[,stall_ms]]",
                "write periodic JSON status snapshots (progress, ETA, "
                "worker heartbeats, hot metrics) to PATH for hyve_top",
                [&](const std::string& v) {
                  live_opts = obs::parse_live_status(v);
                  if (!live_opts)
                    parser.fail("bad --live-status spec " + v);
                });
  parser.parse(argc, argv);

  if (add_frontier) {
    HyveConfig frontier = HyveConfig::hyve_opt();
    frontier.frontier_block_skipping = true;
    frontier.label = "acc+HyVE-opt+frontier";
    spec.configs.push_back(frontier);
  }

  try {
    if (metrics || host_profile || live_opts) obs::set_enabled(true);
    // shared_ptr so the flight recorder can finalize the trace from its
    // own thread even while this scope is mid-sweep.
    std::shared_ptr<obs::Trace> trace;
    if (!trace_path.empty()) {
      trace = std::make_shared<obs::Trace>();
      add_attribution_metadata(*trace, argc, argv);
    }
    options.trace = trace.get();
    if (host_profile) obs::host_profiler().start(options.trace);
    if (live_opts) {
      live_opts->bench = "hyve_experiments";
      obs::live_telemetry().start(*live_opts);
    }
    if (trace || live_opts) {
      const bool profiling = host_profile;
      obs::install_flight_recorder([trace, trace_path,
                                    profiling](int signum) {
        if (obs::live_telemetry().enabled())
          obs::live_telemetry().stop("interrupted");
        if (profiling) obs::host_profiler().stop();
        // Records already emitted to stdout form a valid JSONL/CSV
        // prefix; flush so the pipe reader sees every finished cell.
        std::cout.flush();
        if (trace && !trace_path.empty()) {
          trace->write_file_atomic(trace_path, /*truncated=*/true);
          std::cerr << "flight record: wrote truncated trace to "
                    << trace_path << "\n";
        }
        if (obs::enabled()) obs::registry().dump(std::cerr);
        std::cerr << "flight record complete (signal " << signum << ")\n";
      });
    }

    exp::GraphCache graphs;
    exp::PartitionCache partitions;
    exp::SweepEngine engine(graphs, partitions);
    exp::ResultSink sink(std::cout, format);
    engine.run(spec, options, &sink);

    if (obs::live_telemetry().enabled()) obs::live_telemetry().stop("done");
    if (host_profile) obs::host_profiler().stop();
    if (trace) trace->write_file(trace_path);
    if (cache_stats) {
      std::cerr << "graph cache: loads=" << graphs.loads() << "\n"
                << "partition cache: builds=" << partitions.builds()
                << "\n";
      for (const auto& [strategy, stats] : partitions.strategy_stats())
        std::cerr << "partition cache[" << strategy
                  << "]: hits=" << stats.hits << " builds=" << stats.builds
                  << "\n";
      const exp::FunctionalCache& functional = engine.functional_cache();
      std::cerr << "functional cache: hits=" << functional.hits()
                << " misses=" << functional.misses()
                << " hit_rate=" << functional.hit_rate() << "\n";
    }
    // The full dump carries the host.* lines; without it --host-profile
    // prints them on its own.
    if (metrics)
      obs::registry().dump(std::cerr);
    else if (host_profile)
      obs::HostProfiler::print_summary(std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
