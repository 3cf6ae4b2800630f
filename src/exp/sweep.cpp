#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <thread>
#include <utility>

#include "core/report_io.hpp"
#include "graph/datasets.hpp"
#include "obs/host_profiler.hpp"
#include "obs/live.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace hyve::exp {

SweepSpec SweepSpec::full_grid() {
  SweepSpec spec;
  spec.configs = fig16_accelerator_configs();
  spec.algorithms.assign(std::begin(kCoreAlgorithms),
                         std::end(kCoreAlgorithms));
  for (const DatasetId id : kAllDatasets)
    spec.graphs.push_back(dataset_name(id));
  return spec;
}

std::vector<SweepCell> expand(const SweepSpec& spec) {
  HYVE_CHECK_MSG(!spec.configs.empty() && !spec.partitioners.empty() &&
                     !spec.algorithms.empty() && !spec.graphs.empty(),
                 "sweep spec has an empty axis");
  std::vector<SweepCell> cells;
  cells.reserve(spec.size());
  for (const HyveConfig& config : spec.configs)
    for (const PartitionerSpec& partitioner : spec.partitioners) {
      HyveConfig cell_config = config;
      cell_config.set_partitioner(partitioner);
      for (const Algorithm algorithm : spec.algorithms)
        for (const std::string& graph : spec.graphs)
          cells.push_back({cells.size(), cell_config, algorithm, graph});
    }
  return cells;
}

RunReport run_cached(GraphCache& graphs, PartitionCache& partitions,
                     FunctionalCache& functional, const HyveConfig& config,
                     Algorithm algorithm, const std::string& graph_key,
                     obs::Trace* trace, std::uint32_t trace_pid) {
  const HyveMachine machine(config);
  const auto program = make_program(algorithm);
  std::shared_ptr<const Graph> graph = graphs.acquire(graph_key);
  std::string schedule_key = graph_key;
  if (config.hash_balance) {
    graph = graphs.acquire_balanced(graph_key, config.hash_balance_seed);
    schedule_key =
        GraphCache::balanced_key(graph_key, config.hash_balance_seed);
  }
  const std::uint32_t p =
      machine.choose_num_intervals(*graph, program->vertex_value_bytes());
  const std::shared_ptr<const Partitioning> schedule =
      partitions.acquire(schedule_key, *graph, p, config.partitioner);
  // schedule_key already identifies the graph image (balance seed
  // included); the partitioner, P and the frontier mode pin the rest of
  // the functional inputs, so memory-tech-only config changes share one
  // entry while different strategies (whose block order steers in-pass
  // propagation) never collide.
  const FunctionalKey key{schedule_key, program->name(),
                          config.partitioner.to_string(), p,
                          config.frontier_block_skipping};
  const std::shared_ptr<const FunctionalOutcome> outcome =
      functional.acquire(key, [&] {
        return machine.run_functional_phase(*graph, *schedule, *program);
      });
  return machine.run_with_functional(*graph, *schedule, *program, *outcome,
                                     trace, trace_pid);
}

std::optional<ResultSink::Format> ResultSink::parse_format(
    const std::string& name) {
  if (name == "jsonl" || name == "json") return Format::kJsonl;
  if (name == "csv") return Format::kCsv;
  return std::nullopt;
}

ResultSink::ResultSink(std::ostream& os, Format format, bool annotate_graph)
    : os_(os), format_(format), annotate_graph_(annotate_graph) {
  if (format_ == Format::kCsv)
    os_ << "config,algorithm,graph,num_intervals,iterations,"
           "edges_traversed,exec_time_ns,energy_pj,mteps,mteps_per_watt\n";
}

void ResultSink::write(const SweepCell& cell, const RunReport& report) {
  RunReport annotated = report;
  if (annotate_graph_ && format_ == Format::kJsonl)
    annotated.config_label += "@" + cell.graph_key;

  // Round-trip every record through the parser before emitting it: a
  // sweep must never produce output the tooling cannot read back.
  const std::string json = validated_report_json(annotated);

  if (format_ == Format::kJsonl) {
    os_ << json << '\n';
  } else {
    os_ << annotated.config_label << ',' << annotated.algorithm << ','
        << cell.graph_key << ',' << annotated.num_intervals << ','
        << annotated.iterations << ',' << annotated.edges_traversed << ','
        << Table::num(annotated.exec_time_ns, 0) << ','
        << Table::num(annotated.total_energy_pj(), 0) << ','
        << Table::num(annotated.mteps(), 1) << ','
        << Table::num(annotated.mteps_per_watt(), 1) << '\n';
  }
  ++records_;
}

void parallel_cells(std::size_t n, int jobs_option,
                    const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  // Live progress/heartbeats for every cell list that flows through
  // here (SweepEngine grids and the benches' irregular run_cells lists
  // alike). Totals accumulate per call so a binary running several
  // grids reports one monotone done/total. No-ops when --live-status
  // was not given.
  obs::LiveTelemetry& live = obs::live_telemetry();
  live.add_total_cells(n);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex mu;  // guards first_error
  std::exception_ptr first_error;

  auto worker = [&] {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      live.begin_cell(i);
      try {
        fn(i);
      } catch (...) {
        const std::scoped_lock lock(mu);
        if (!first_error) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
      live.end_cell();
    }
  };

  std::size_t jobs =
      jobs_option > 0
          ? static_cast<std::size_t>(jobs_option)
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  jobs = std::min(jobs, n);

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<SweepResult> SweepEngine::run(const SweepSpec& spec,
                                          const SweepOptions& options,
                                          ResultSink* sink) {
  const std::vector<SweepCell> cells = expand(spec);
  const std::size_t n = cells.size();
  std::vector<std::optional<RunReport>> reports(n);

  if (options.trace != nullptr) {
    // Graph-cache hit-rate timeline on the sweep's own pid-0 track.
    // Computed analytically in cell-index order — the first touch of
    // each graph image (base or balanced) is its compulsory miss, every
    // later touch a hit — so the trace stays byte-identical for any
    // --jobs value even though the real execution order races.
    options.trace->process_name(0, "sweep");
    options.trace->thread_name(0, 0, "graph cache");
    std::set<std::string> seen;
    std::uint64_t touches = 0;
    std::uint64_t hits = 0;
    const auto touch = [&](const std::string& key) {
      ++touches;
      if (!seen.insert(key).second) ++hits;
    };
    for (std::size_t i = 0; i < n; ++i) {
      touch(cells[i].graph_key);
      if (cells[i].config.hash_balance)
        touch(GraphCache::balanced_key(cells[i].graph_key,
                                       cells[i].config.hash_balance_seed));
      // ts is the cell index: the track reads as "hit rate after cell i".
      options.trace->counter(
          0, 0, "graph-cache hit rate", static_cast<double>(i),
          {{"hit_rate", static_cast<double>(hits) /
                            static_cast<double>(touches)}});
    }
  }

  std::mutex mu;  // guards reports[] and flushed
  std::size_t flushed = 0;

  std::atomic<std::int64_t> in_flight{0};

  parallel_cells(n, options.jobs, [&](std::size_t i) {
    const auto wall_start = std::chrono::steady_clock::now();
    if (obs::enabled())
      obs::registry()
          .gauge("exp.sweep.in_flight")
          .set(in_flight.fetch_add(1, std::memory_order_relaxed) + 1);
    // pid 0 would collide with the default single-run pid of 1 for the
    // first cell only; cell index + 1 keeps every cell distinct anyway.
    std::optional<RunReport> cell_report;
    {
      const obs::HostSpan host_span("sweep.cell");
      cell_report = run_cached(graphs_, partitions_, functional_,
                               cells[i].config, cells[i].algorithm,
                               cells[i].graph_key, options.trace,
                               static_cast<std::uint32_t>(i) + 1);
    }
    RunReport report = std::move(*cell_report);
    if (obs::host_profiler().enabled()) {
      obs::host_profiler().count("cells", 1);
      obs::host_profiler().count("edges", report.edges_traversed);
    }
    if (obs::enabled()) {
      static obs::Counter& cells_done =
          obs::registry().counter("exp.sweep.cells");
      static obs::Histogram& wall_us =
          obs::registry().histogram("exp.sweep.cell_wall_us");
      cells_done.add();
      wall_us.observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - wall_start)
              .count()));
      obs::registry()
          .gauge("exp.sweep.in_flight")
          .set(in_flight.fetch_sub(1, std::memory_order_relaxed) - 1);
    }
    const std::scoped_lock lock(mu);
    reports[i] = std::move(report);
    // Emit the completed prefix; later cells wait their turn so the
    // output order never depends on thread scheduling.
    while (flushed < n && reports[flushed].has_value()) {
      if (sink != nullptr) sink->write(cells[flushed], *reports[flushed]);
      if (options.on_result)
        options.on_result(cells[flushed], *reports[flushed]);
      ++flushed;
    }
  });

  std::vector<SweepResult> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({cells[i], std::move(*reports[i])});
  return out;
}

}  // namespace hyve::exp
