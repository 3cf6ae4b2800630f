// hyve_perfbench — the benchmark program behind perfbench/run.py.
//
//   hyve_perfbench --workload grid|bigsim|evolve --seed N --seconds S
//                  --trace 0|1 --workdir DIR [--setup-only] [--spans PATH]
//
// Sets the workload up once (timed as setup_s), then runs rounds of its
// fixed work until S seconds have passed. A reference kernel runs before
// every round and after the last; round_s is the median over rounds of
// wall time × (nominal kernel time ÷ the mean of the two adjacent kernel
// times), which divides out how fast the shared host was at the time.
// The kernel also checks that no thread of the program used CPU outside
// the rounds. peak_rss_mb is the median over rounds of the round's peak
// RSS. Every round's outputs are checked.
//
// The last stdout line is one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1, which alternates
// untraced rounds with traced replays). --setup-only stops after set-up
// and prints only setup_s; run.py uses it to take the median of several
// set-ups. The program's dataset cache is a private, initially empty
// directory under DIR, removed again on exit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;
// Largest share of traced time the spans may leave unattributed
// (benchmark glue between the layer calls).
constexpr double kMaxUnattributed = 0.03;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string workdir;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hyve_perfbench: " << why
            << "\nusage: hyve_perfbench --workload grid|bigsim|evolve --seed N"
               " --seconds S --trace 0|1 --workdir DIR [--setup-only]"
               " [--spans PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--workdir") a.workdir = v;
      else if (flag == "--spans") a.spans_path = v;
      else usage("unknown option " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.workdir.empty()) usage("--workdir is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// The program's dataset cache for this process: created empty, exported
// as HYVE_DATASET_CACHE (so $TMPDIR/hyve-datasets-v1 is never touched),
// removed on destruction — on the error path too.
class PrivateDatasetCache {
 public:
  explicit PrivateDatasetCache(const std::filesystem::path& workdir)
      : path_(workdir / "datasets") {
    if (std::filesystem::exists(path_))
      throw std::runtime_error("dataset cache " + path_.string() +
                               " already exists; set-up must start cold");
    std::filesystem::create_directories(path_);
    setenv("HYVE_DATASET_CACHE", path_.c_str(), 1);
  }
  ~PrivateDatasetCache() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  PrivateDatasetCache(const PrivateDatasetCache&) = delete;
  PrivateDatasetCache& operator=(const PrivateDatasetCache&) = delete;

 private:
  std::filesystem::path path_;
};

struct RoundSample {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  // VmHWM reached during the round
  double ref_s = 0;  // mean of the kernels before and after the round
  Counts counts;
};

struct Metric {
  double value = 0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

double geomean_mteps_per_w(const std::vector<hyve::RunReport>& reports) {
  double log_sum = 0;
  for (const hyve::RunReport& r : reports) log_sum += std::log(r.mteps_per_watt());
  return reports.empty() ? 0 : std::exp(log_sum / static_cast<double>(reports.size()));
}

void add_sim_sums(std::map<std::string, Metric>& m,
                  const std::vector<hyve::RunReport>& reports) {
  double exec_ms = 0, energy_mj = 0, edge_bytes = 0, hops = 0, wakes = 0;
  for (const hyve::RunReport& r : reports) {
    exec_ms += r.exec_time_ns / 1e6;
    energy_mj += r.total_energy_pj() / 1e9;
    edge_bytes += static_cast<double>(r.stats.edge_bytes_read);
    hops += static_cast<double>(r.stats.router_hops);
    wakes += static_cast<double>(r.bpg.bank_wakes);
  }
  m["sim.exec_time_ms"] = {exec_ms, "ms"};
  m["sim.energy_mj"] = {energy_mj, "mJ"};
  m["sim.edge_bytes_read"] = {edge_bytes, "bytes"};
  m["sim.router_hops"] = {hops, "count"};
  m["sim.bank_wakes"] = {wakes, "count"};
}

// Per-layer metrics from the traced rounds' spans and counts.
std::map<std::string, Metric> layer_metrics(
    const std::vector<RoundSample>& rounds, const std::vector<double>& refs,
    int jobs, double setup_rss_mb,
    const std::vector<hyve::RunReport>& reports) {
  const std::vector<SpanRecord> spans = SpanRecorder::get().snapshot();
  const std::map<std::int64_t, double> self = SpanRecorder::get().self_times();

  // Per-round self-time totals by span name ("algos.functional/BFS" for
  // the per-algorithm split); round -1 is set-up.
  std::map<int, std::map<std::string, double>> totals;
  std::map<int, double> cell_busy;  // summed exp.cell durations
  std::vector<double> cell_durations;
  for (const SpanRecord& s : spans) {
    const double t = self.at(s.id);
    totals[s.round][s.name] += t;
    if (s.name == "algos.functional")
      totals[s.round]["algos.functional/" + s.detail] += t;
    if (s.name == "exp.cell") {
      cell_busy[s.round] += s.end - s.start;
      cell_durations.push_back(s.end - s.start);
    }
  }

  std::vector<int> traced_ids;
  std::vector<double> traced_wall, untraced_wall, untraced_cpu;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    if (rounds[r].traced) {
      traced_ids.push_back(static_cast<int>(r));
      traced_wall.push_back(rounds[r].wall_s);
    } else {
      untraced_wall.push_back(rounds[r].wall_s);
      untraced_cpu.push_back(rounds[r].cpu_s);
    }
  }
  const auto count_of = [&](int r, const std::string& name) {
    const auto& c = rounds[static_cast<std::size_t>(r)].counts;
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto count_median = [&](const std::string& name) {
    std::vector<double> v;
    for (const int r : traced_ids) v.push_back(count_of(r, name));
    return median(v);
  };
  const auto span_median = [&](const std::string& name) {
    std::vector<double> v;
    for (const int r : traced_ids) v.push_back(totals[r][name]);
    return median(v);
  };
  const auto ratio_median = [&](auto num, auto den) {
    std::vector<double> v;
    for (const int r : traced_ids) {
      const double d = den(r);
      v.push_back(d > 0 ? num(r) / d : 0);
    }
    return median(v);
  };

  std::map<std::string, Metric> m;
  auto& setup = totals[-1];
  m["graph.generate_s"] = {setup["graph.generate"], "s"};
  m["graph.remap_s"] = {setup["graph.remap"] + span_median("graph.remap"), "s"};
  m["graph.partition_s"] = {span_median("graph.partition"), "s"};
  m["graph.partition_calls"] = {count_median("graph.partition_calls"), "count"};
  m["graph.soa_transpose_s"] = {span_median("graph.soa_transpose"), "s"};
  m["graph.soa_bytes"] = {count_median("graph.soa_bytes"), "bytes"};

  m["algos.functional_s"] = {span_median("algos.functional"), "s"};
  m["algos.functional_calls"] = {count_median("algos.functional_calls"), "count"};
  m["algos.bfs.functional_s"] = {span_median("algos.functional/BFS"), "s"};
  m["algos.cc.functional_s"] = {span_median("algos.functional/CC"), "s"};
  m["algos.pr.functional_s"] = {span_median("algos.functional/PR"), "s"};
  m["algos.edges_per_s"] = {
      ratio_median([&](int r) { return count_of(r, "algos.edges"); },
                   [&](int r) { return totals[r]["algos.functional"]; }),
      "1/s"};
  m["algos.iterations"] = {count_median("algos.iterations"), "count"};
  m["algos.write_ratio"] = {
      ratio_median([&](int r) { return count_of(r, "algos.writes"); },
                   [&](int r) { return count_of(r, "algos.edges"); }),
      "ratio"};

  m["core.account_s"] = {span_median("core.account"), "s"};
  m["core.report_s"] = {span_median("core.report"), "s"};
  m["core.report_bytes"] = {count_median("core.report_bytes"), "bytes"};
  add_sim_sums(m, reports);

  m["exp.cell_s.p50"] = {quantile(cell_durations, 0.5), "s"};
  m["exp.cell_s.p90"] = {quantile(cell_durations, 0.9), "s"};
  {
    std::vector<double> wait;
    for (const int r : traced_ids)
      if (cell_busy.count(r) != 0)
        wait.push_back(jobs * rounds[static_cast<std::size_t>(r)].wall_s -
                       cell_busy[r] + totals[r]["exp.wait"]);
    m["exp.worker_wait_s"] = {median(wait), "s"};
  }
  m["exp.graph_cache.loads"] = {count_median("exp.graph_cache.loads"), "count"};
  m["exp.partition_cache.builds"] = {count_median("exp.partition_cache.builds"),
                                     "count"};
  m["exp.partition_cache.hits"] = {count_median("exp.partition_cache.hits"),
                                   "count"};

  m["dynamic.store_build_s"] = {setup["dynamic.store_build"], "s"};
  m["dynamic.apply_s"] = {span_median("dynamic.apply"), "s"};
  m["dynamic.requests_per_s"] = {
      ratio_median([&](int r) { return count_of(r, "dynamic.requests"); },
                   [&](int r) { return totals[r]["dynamic.apply"]; }),
      "1/s"};
  m["dynamic.accept_ratio"] = {
      ratio_median([&](int r) { return count_of(r, "dynamic.accepted"); },
                   [&](int r) { return count_of(r, "dynamic.requests"); }),
      "ratio"};
  m["dynamic.snapshot_s"] = {span_median("dynamic.snapshot"), "s"};
  m["dynamic.incremental_cc_s"] = {span_median("dynamic.incremental_cc"), "s"};
  m["dynamic.incremental_recomputes"] = {
      count_median("dynamic.incremental_recomputes"), "count"};
  m["dynamic.overflow_chunks"] = {count_median("dynamic.overflow_chunks"),
                                  "count"};
  m["dynamic.preprocess_count"] = {count_median("dynamic.preprocess_count"),
                                   "count"};

  m["host.wall_s"] = {median(untraced_wall), "s"};
  m["host.ref_kernel_s"] = {median(refs), "s"};
  m["host.cpu_s"] = {median(untraced_cpu), "s"};
  m["host.setup_rss_mb"] = {setup_rss_mb, "MB"};
  m["host.trace_overhead"] = {median(traced_wall) / median(untraced_wall) - 1,
                              "ratio"};

  // Glue the spans do not attribute to a layer: the self time of the
  // containers (exp.cell on grid workers, the round elsewhere).
  std::vector<double> share;
  for (const int r : traced_ids) {
    if (cell_busy.count(r) != 0)
      share.push_back(totals[r]["exp.cell"] / cell_busy[r]);
    else
      share.push_back(totals[r]["round"] /
                      rounds[static_cast<std::size_t>(r)].wall_s);
  }
  m["host.unattributed_share"] = {median(share), "ratio"};
  return m;
}

int run(const Args& args) {
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload " + args.workload);
  const PrivateDatasetCache cache(args.workdir);
  SpanRecorder& recorder = SpanRecorder::get();

  recorder.set_round(-1);
  recorder.set_enabled(args.trace);
  const double setup_start = now_s();
  workload->setup();
  const double setup_s = now_s() - setup_start;
  recorder.set_enabled(false);
  const double setup_rss_mb = peak_rss_mb();
  if (args.setup_only) {
    std::cout << "{\"setup_s\": " << json_number(setup_s) << "}" << std::endl;
    return 0;
  }
  workload->prepare();

  Checker checker;
  RefKernel ref(workload->ref_shape());
  std::vector<RoundSample> rounds;
  std::vector<double> ref_walls;
  const auto run_ref = [&] {
    const RefKernel::Sample s = ref.run();
    ref_walls.push_back(s.wall_s);
    if (!s.cpu_clean)
      checker.fail("process used " + json_number(s.process_cpu_s) +
                   " s CPU while the reference kernel's thread used " +
                   json_number(s.thread_cpu_s) + " s");
  };

  const double loop_start = now_s();
  bool aborted = false;
  for (int r = 0; !aborted; ++r) {
    RoundSample sample;
    // Odd rounds of a traced run are traced replays; round 0 is always
    // the program's own path, so every replay is checked against it.
    sample.traced = args.trace && r % 2 == 1;
    workload->before_round();
    run_ref();
    recorder.set_round(r);
    recorder.set_enabled(sample.traced);
    reset_peak_rss();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    try {
      const Span span("round", -1, workload->name());
      workload->round(sample.traced, sample.counts);
    } catch (const std::exception& e) {
      checker.fail(std::string("round ") + std::to_string(r) + " threw: " +
                   e.what());
      aborted = true;
    }
    sample.wall_s = now_s() - t0;
    sample.cpu_s = process_cpu_s() - cpu0;
    sample.peak_rss_mb = peak_rss_mb();
    recorder.set_enabled(false);
    rounds.push_back(std::move(sample));
    if (aborted) break;
    workload->check_round(checker);
    const bool long_enough = now_s() - loop_start >= args.seconds;
    if (long_enough && static_cast<int>(rounds.size()) >= kMinRounds &&
        (!args.trace || rounds.size() % 2 == 0))
      break;
  }
  run_ref();
  const double nominal_s = workload->ref_shape().nominal_s;
  std::vector<double> walls, corrected, round_rss;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    rounds[r].ref_s = 0.5 * (ref_walls[r] + ref_walls[r + 1]);
    if (rounds[r].traced) continue;
    walls.push_back(rounds[r].wall_s);
    round_rss.push_back(rounds[r].peak_rss_mb);
    corrected.push_back(rounds[r].wall_s * nominal_s / rounds[r].ref_s);
  }

  std::map<std::string, Metric> metrics;
  if (args.trace) {
    metrics = layer_metrics(rounds, ref_walls, workload->jobs(), setup_rss_mb,
                            workload->reports());
    const double unattributed = metrics["host.unattributed_share"].value;
    if (unattributed > kMaxUnattributed)
      checker.fail("spans leave " + json_number(unattributed) +
                   " of the traced time unattributed (tolerance " +
                   json_number(kMaxUnattributed) + ")");
  } else {
    metrics["setup_s"] = {setup_s, "s"};
    metrics["round_s"] = {median(corrected), "s"};
    metrics["peak_rss_mb"] = {median(round_rss), "MB"};
    metrics["sim_mteps_per_w"] = {geomean_mteps_per_w(workload->reports()),
                                  "MTEPS/W"};
  }
  if (!args.spans_path.empty()) recorder.write_chrome_trace(args.spans_path);

  std::cerr << "hyve_perfbench: round walls (s):";
  for (const RoundSample& s : rounds)
    std::cerr << ' ' << json_number(s.wall_s) << (s.traced ? "T" : "");
  std::cerr << "\nhyve_perfbench: reference kernels (s):";
  for (const double w : ref_walls) std::cerr << ' ' << json_number(w);
  std::cerr << "\n";
  for (const std::string& e : checker.errors())
    std::cerr << "hyve_perfbench: FAILED: " << e << "\n";
  std::cout << "workload=" << workload->name() << " seed=" << args.seed
            << " jobs=" << workload->jobs() << " trace=" << args.trace
            << " rounds=" << walls.size() << (args.trace ? " untraced" : "")
            << " round_s(median)=" << json_number(median(corrected))
            << " iqr=" << json_number(quantile(corrected, 0.75) - quantile(corrected, 0.25))
            << " raw_median=" << json_number(median(walls))
            << " raw_iqr=" << json_number(quantile(walls, 0.75) - quantile(walls, 0.25))
            << " ref_kernel_s(median)=" << json_number(median(ref_walls))
            << " setup_s=" << json_number(setup_s)
            << " sim_digest=" << checker.first_round_digest()
            << " sim_mteps_per_w=" << json_number(geomean_mteps_per_w(workload->reports()))
            << "\n";
  const std::uint64_t attempted = std::max<std::uint64_t>(1, checker.attempted());
  print_result(checker.failed() == 0, attempted, checker.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hyve_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
