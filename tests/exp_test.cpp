// Sweep engine (src/exp): build-once cache correctness (also under
// concurrent first requests), determinism across thread counts,
// order-stable sinks, and the RunReport JSON round-trip that guards
// every record the sink writes. Runs under TSan in CI via the
// "sweep-engine" ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/report_io.hpp"
#include "exp/sweep.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

void add_test_graphs(exp::GraphCache& cache) {
  cache.add("g1", [] { return generate_rmat(12000, 70000, {}, 101); });
  cache.add("g2", [] { return generate_erdos_renyi(12000, 70000, 103); });
}

exp::SweepSpec small_spec() {
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt(), HyveConfig::sram_dram(),
                  HyveConfig::acc_dram()};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {"g1", "g2"};
  return spec;
}

std::string sweep_output(const exp::SweepSpec& spec, int jobs,
                         exp::ResultSink::Format format) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  std::ostringstream os;
  exp::ResultSink sink(os, format);
  exp::SweepOptions options;
  options.jobs = jobs;
  engine.run(spec, options, &sink);
  return os.str();
}

TEST(SweepEngine, ParallelOutputIdenticalToSerial) {
  const exp::SweepSpec spec = small_spec();
  const std::string serial =
      sweep_output(spec, 1, exp::ResultSink::Format::kJsonl);
  const std::string parallel =
      sweep_output(spec, 8, exp::ResultSink::Format::kJsonl);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // One line per cell, in cell order.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(serial.begin(), serial.end(), '\n')),
            spec.size());
}

TEST(SweepEngine, ParallelCsvIdenticalToSerial) {
  const exp::SweepSpec spec = small_spec();
  EXPECT_EQ(sweep_output(spec, 1, exp::ResultSink::Format::kCsv),
            sweep_output(spec, 8, exp::ResultSink::Format::kCsv));
}

TEST(SweepEngine, CachedRunMatchesUncachedRun) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::FunctionalCache functional;

  std::vector<HyveConfig> configs = {HyveConfig::hyve_opt(),
                                     HyveConfig::hyve(),
                                     HyveConfig::acc_dram()};
  HyveConfig frontier = HyveConfig::hyve_opt();
  frontier.frontier_block_skipping = true;
  frontier.label = "frontier";
  configs.push_back(frontier);
  HyveConfig unbalanced = HyveConfig::hyve_opt();
  unbalanced.hash_balance = false;
  unbalanced.label = "unbalanced";
  configs.push_back(unbalanced);

  for (const HyveConfig& cfg : configs) {
    for (const Algorithm algo : {Algorithm::kBfs, Algorithm::kPageRank}) {
      const RunReport cached =
          exp::run_cached(graphs, partitions, functional, cfg, algo, "g1");
      const RunReport direct =
          HyveMachine(cfg).run(graphs.base("g1"), algo);
      EXPECT_EQ(report_to_json(cached), report_to_json(direct))
          << cfg.label << "/" << algorithm_name(algo);
    }
  }
}

TEST(SweepEngine, CachesBuildEachArtifactOnce) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);

  exp::SweepSpec spec = small_spec();
  exp::SweepOptions options;
  options.jobs = 4;
  engine.run(spec, options);

  // g1 + g2; their hash-balanced images live in each graph's own remap
  // memo and are not cache loads.
  EXPECT_EQ(graphs.loads(), 2u);
  const std::size_t first = partitions.builds();
  EXPECT_GT(first, 0u);
  // All 12 cells share partitionings: at most one per (graph, config
  // family, value width), far fewer than the cell count.
  EXPECT_LT(first, spec.size());

  // A second identical sweep hits every cache.
  engine.run(spec, options);
  EXPECT_EQ(graphs.loads(), 2u);
  EXPECT_EQ(partitions.builds(), first);
}

TEST(SweepEngine, GraphCacheBuildsOnceUnderConcurrency) {
  exp::GraphCache cache;
  std::atomic<int> builds{0};
  cache.add("shared", [&builds] {
    ++builds;
    return generate_rmat(2000, 8000, {}, 7);
  });
  std::vector<std::thread> pool;
  for (int i = 0; i < 8; ++i)
    pool.emplace_back([&cache] {
      for (int j = 0; j < 4; ++j) {
        const Graph& g = cache.base("shared");
        EXPECT_EQ(g.num_vertices(), 2000u);
        cache.acquire_balanced("shared", 42);
      }
    });
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.loads(), 1u);
}

TEST(SweepEngine, BalancedImageIsTheGraphsOwnRemap) {
  // One balanced image per (graph, seed): the cache hands out the one
  // Graph::hashed_remap_shared memoises, which direct HyveMachine::run
  // callers share.
  exp::GraphCache cache;
  add_test_graphs(cache);
  for (const char* key : {"g1", "g2"}) {
    const auto balanced = cache.acquire_balanced(key, 7);
    EXPECT_EQ(balanced.get(), cache.acquire(key)->hashed_remap_shared(7).get())
        << key;
    EXPECT_EQ(cache.acquire_balanced(key, 7).get(), balanced.get()) << key;
  }
}

TEST(SweepEngine, ConcurrentFirstAcquireBuildsOncePerCache) {
  // Eight workers make the first request for one key of each cache at
  // the same time; each cache must run exactly one build and hand every
  // worker the same object.
  exp::GraphCache graphs;
  std::atomic<int> graph_builds{0};
  graphs.add("g", [&graph_builds] {
    ++graph_builds;
    return generate_rmat(2000, 8000, {}, 7);
  });
  exp::PartitionCache partitions;
  exp::FunctionalCache functional;
  std::atomic<int> functional_builds{0};
  const HyveMachine machine(HyveConfig::hyve_opt());

  constexpr int kThreads = 8;
  std::vector<const void*> seen(3 * kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto graph = graphs.acquire("g");
      const auto program = make_program(Algorithm::kBfs);
      const std::uint32_t p = machine.choose_num_intervals(
          *graph, program->vertex_value_bytes());
      const auto schedule = partitions.acquire("g", *graph, p);
      const auto outcome = functional.acquire(
          {"g", program->name(), "interval", p, false}, [&] {
            ++functional_builds;
            return machine.run_functional_phase(*graph, *schedule, *program);
          });
      seen[3 * t] = graph.get();
      seen[3 * t + 1] = schedule.get();
      seen[3 * t + 2] = outcome.get();
    });
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(graph_builds.load(), 1);
  EXPECT_EQ(graphs.loads(), 1u);
  EXPECT_EQ(partitions.builds(), 1u);
  EXPECT_EQ(partitions.strategy_stats().at("interval").hits,
            static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(functional_builds.load(), 1);
  EXPECT_EQ(functional.misses(), 1u);
  EXPECT_EQ(functional.hits(), static_cast<std::size_t>(kThreads - 1));
  for (int t = 1; t < kThreads; ++t)
    for (int c = 0; c < 3; ++c) EXPECT_EQ(seen[3 * t + c], seen[c]);
}

TEST(SweepEngine, PartitionCacheKeyReuseForDifferentGraphIsRejected) {
  exp::PartitionCache cache;
  const Graph g1 = generate_rmat(2000, 8000, {}, 7);
  const Graph g2 = generate_rmat(3000, 9000, {}, 8);
  cache.acquire("k", g1, 4);
  EXPECT_THROW(cache.acquire("k", g2, 4), InvariantError);
}

std::shared_ptr<const int> boxed(int value) {
  return std::make_shared<const int>(value);
}

TEST(Memo, FirstGetBuildsAndLaterGetsShareTheValue) {
  exp::Memo<int, int> memo;
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return boxed(10 + builds);
  };
  const auto first = memo.get(1, build);
  EXPECT_TRUE(first.built);
  EXPECT_EQ(*first.value, 11);
  const auto again = memo.get(1, build);
  EXPECT_FALSE(again.built);
  EXPECT_EQ(again.value.get(), first.value.get());
  const auto other = memo.get(2, build);
  EXPECT_TRUE(other.built);
  EXPECT_EQ(*other.value, 12);
  EXPECT_EQ(builds, 2);
}

TEST(Memo, ThrowingBuildLeavesSlotEmptyForRetry) {
  exp::Memo<std::string, int> memo;
  EXPECT_THROW(memo.get("k",
                        []() -> std::shared_ptr<const int> {
                          throw std::runtime_error("build failed");
                        }),
               std::runtime_error);
  const auto retry = memo.get("k", [] { return boxed(7); });
  EXPECT_TRUE(retry.built);
  EXPECT_EQ(*retry.value, 7);
  const auto hit = memo.get("k", [] { return boxed(8); });
  EXPECT_FALSE(hit.built);
  EXPECT_EQ(*hit.value, 7);
}

TEST(Memo, SameKeyRequestsShareOneBuild) {
  exp::Memo<int, int> memo;
  std::atomic<int> builds{0};
  std::atomic<int> built_results{0};
  constexpr int kThreads = 8;
  std::vector<const int*> seen(kThreads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      const auto result = memo.get(0, [&builds] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return boxed(42);
      });
      if (result.built) ++built_results;
      seen[t] = result.value.get();
    });
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_results.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(Memo, DistinctKeysBuildConcurrently) {
  // Each build waits until the other key's build has started. If builds
  // of different keys were serialised, the first would time out.
  exp::Memo<int, int> memo;
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::atomic<int> met{0};
  const auto rendezvous = [&](int key) {
    return memo.get(key, [&, key] {
      std::unique_lock lock(mu);
      ++started;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(10),
                      [&] { return started == 2; }))
        ++met;
      return boxed(key);
    });
  };
  std::thread a([&] { rendezvous(1); });
  std::thread b([&] { rendezvous(2); });
  a.join();
  b.join();
  EXPECT_EQ(met.load(), 2);
}

TEST(GraphCache, AddRejectsTakenKeys) {
  exp::GraphCache cache;
  cache.add("g", [] { return generate_rmat(200, 800, {}, 1); });
  EXPECT_THROW(cache.add("g", [] { return generate_rmat(200, 800, {}, 2); }),
               InvariantError);
  EXPECT_THROW(cache.add("g", generate_rmat(200, 800, {}, 3)), InvariantError);
  // Dataset short names are pre-registered.
  EXPECT_THROW(cache.add("YT", generate_rmat(200, 800, {}, 4)),
               InvariantError);
}

TEST(GraphCache, UnknownKeyIsRejected) {
  exp::GraphCache cache;
  EXPECT_FALSE(cache.contains("nope"));
  EXPECT_THROW(cache.acquire("nope"), InvariantError);
  EXPECT_THROW(cache.acquire_balanced("nope", 1), InvariantError);
  EXPECT_EQ(cache.loads(), 0u);
}

TEST(GraphCache, LazyGraphIsBuiltOnFirstAcquireOnly) {
  exp::GraphCache cache;
  int builds = 0;
  cache.add("lazy", [&builds] {
    ++builds;
    return generate_rmat(2000, 8000, {}, 7);
  });
  EXPECT_TRUE(cache.contains("lazy"));
  EXPECT_EQ(builds, 0);
  EXPECT_EQ(cache.loads(), 0u);
  const auto first = cache.acquire("lazy");
  EXPECT_EQ(first->num_vertices(), 2000u);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.loads(), 1u);
  EXPECT_EQ(cache.acquire("lazy").get(), first.get());
  EXPECT_EQ(&cache.base("lazy"), first.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.loads(), 1u);
}

TEST(GraphCache, PrebuiltGraphIsServedAsRegistered) {
  const Graph graph = generate_erdos_renyi(1500, 6000, 11);
  exp::GraphCache cache;
  cache.add("pre", graph);
  const auto served = cache.acquire("pre");
  EXPECT_EQ(served->num_vertices(), graph.num_vertices());
  EXPECT_EQ(served->num_edges(), graph.num_edges());
  EXPECT_EQ(cache.acquire("pre").get(), served.get());
  EXPECT_EQ(cache.loads(), 1u);
}

TEST(GraphCache, DatasetKeysViewTheSharedDatasetStore) {
  exp::GraphCache a;
  exp::GraphCache b;
  for (const DatasetId id : kAllDatasets)
    EXPECT_TRUE(a.contains(dataset_name(id))) << dataset_name(id);
  const Graph* store = &dataset_graph(DatasetId::kYT);
  EXPECT_EQ(a.acquire("YT").get(), store);
  EXPECT_EQ(b.acquire("YT").get(), store);
}

TEST(GraphCache, ThrowingMakerIsRetriedAndCountsOneLoad) {
  exp::GraphCache cache;
  int calls = 0;
  cache.add("flaky", [&calls] {
    if (++calls == 1) throw std::runtime_error("transient");
    return generate_rmat(2000, 8000, {}, 7);
  });
  EXPECT_THROW(cache.acquire("flaky"), std::runtime_error);
  EXPECT_EQ(cache.loads(), 0u);
  const auto graph = cache.acquire("flaky");
  EXPECT_EQ(graph->num_vertices(), 2000u);
  EXPECT_EQ(cache.loads(), 1u);
  EXPECT_EQ(cache.acquire("flaky").get(), graph.get());
  EXPECT_EQ(calls, 2);
}

TEST(GraphCache, BalancedImagesAreKeyedBySeed) {
  EXPECT_NE(exp::GraphCache::balanced_key("g", 1),
            exp::GraphCache::balanced_key("g", 2));
  EXPECT_NE(exp::GraphCache::balanced_key("g", 1), "g");
  exp::GraphCache cache;
  add_test_graphs(cache);
  const auto base = cache.acquire("g1");
  const auto one = cache.acquire_balanced("g1", 1);
  const auto two = cache.acquire_balanced("g1", 2);
  EXPECT_NE(one.get(), two.get());
  EXPECT_NE(one.get(), base.get());
  for (const auto& image : {one, two}) {
    EXPECT_EQ(image->num_vertices(), base->num_vertices());
    EXPECT_EQ(image->num_edges(), base->num_edges());
  }
  EXPECT_EQ(cache.loads(), 1u);
}

TEST(PartitionCache, StrategiesAndIntervalCountsGetDistinctEntries) {
  const Graph graph = generate_rmat(2000, 8000, {}, 7);
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;
  exp::PartitionCache cache;
  const auto p4 = cache.acquire("g", graph, 4);
  EXPECT_EQ(cache.acquire("g", graph, 4).get(), p4.get());
  const auto p8 = cache.acquire("g", graph, 8);
  const auto hep4 = cache.acquire("g", graph, 4, hep);
  EXPECT_NE(p8.get(), p4.get());
  EXPECT_NE(hep4.get(), p4.get());
  EXPECT_EQ(p4->num_intervals(), 4u);
  EXPECT_EQ(p8->num_intervals(), 8u);
  EXPECT_EQ(hep4->num_intervals(), 4u);
  EXPECT_EQ(cache.builds(), 3u);

  const auto stats = cache.strategy_stats();
  ASSERT_EQ(stats.size(), 2u);
  const auto& interval = stats.at(PartitionerSpec{}.to_string());
  EXPECT_EQ(interval.builds, 2u);
  EXPECT_EQ(interval.hits, 1u);
  const auto& hep_stats = stats.at(hep.to_string());
  EXPECT_EQ(hep_stats.builds, 1u);
  EXPECT_EQ(hep_stats.hits, 0u);
}

TEST(PartitionCache, CachedScheduleMatchesAFreshPartition) {
  const Graph graph = generate_rmat(2000, 8000, {}, 7);
  PartitionerSpec hep;
  hep.strategy = PartitionStrategy::kHep;
  exp::PartitionCache cache;
  for (const PartitionerSpec& spec : {PartitionerSpec{}, hep}) {
    const auto cached = cache.acquire("g", graph, 4, spec);
    const Partitioning fresh = make_partitioner(spec)->partition(graph, 4);
    ASSERT_EQ(cached->num_intervals(), fresh.num_intervals());
    for (VertexId v = 0; v < graph.num_vertices(); ++v)
      ASSERT_EQ(cached->interval_of(v), fresh.interval_of(v))
          << spec.to_string() << " v=" << v;
    EXPECT_TRUE(std::ranges::equal(cached->edge_columns().sources(),
                                   fresh.edge_columns().sources()))
        << spec.to_string();
    EXPECT_TRUE(std::ranges::equal(cached->edge_columns().destinations(),
                                   fresh.edge_columns().destinations()))
        << spec.to_string();
  }
}

TEST(SweepEngine, PropagatesCellFailures) {
  exp::GraphCache graphs;
  graphs.add("tiny", [] { return generate_rmat(4, 8, {}, 1); });
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt()};  // 8 PUs > 4 vertices
  spec.algorithms = {Algorithm::kBfs};
  spec.graphs = {"tiny"};
  EXPECT_THROW(engine.run(spec), InvariantError);
}

TEST(SweepEngine, SinkAnnotatesGraphAndValidates) {
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt()};
  spec.algorithms = {Algorithm::kBfs};
  spec.graphs = {"g1"};
  const std::string out =
      sweep_output(spec, 1, exp::ResultSink::Format::kJsonl);
  EXPECT_NE(out.find("\"acc+HyVE-opt@g1\""), std::string::npos);
  const RunReport parsed = run_report_from_json(out);
  EXPECT_EQ(parsed.config_label, "acc+HyVE-opt@g1");
  EXPECT_EQ(parsed.algorithm, "BFS");
}

TEST(SweepEngine, CsvHasHeaderAndOneRowPerCell) {
  const exp::SweepSpec spec = small_spec();
  const std::string out =
      sweep_output(spec, 2, exp::ResultSink::Format::kCsv);
  std::istringstream is(out);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line,
            "config,algorithm,graph,num_intervals,iterations,"
            "edges_traversed,exec_time_ns,energy_pj,mteps,mteps_per_watt");
  std::size_t rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, spec.size());
}

TEST(ReportRoundTrip, RecoversEveryField) {
  const Graph g = generate_rmat(10000, 60000, {}, 31337);
  for (const HyveConfig& cfg :
       {HyveConfig::hyve_opt(), HyveConfig::acc_dram()}) {
    const RunReport r = HyveMachine(cfg).run(g, Algorithm::kPageRank);
    const RunReport back = run_report_from_json(report_to_json(r));
    EXPECT_TRUE(reports_equivalent(back, r)) << cfg.label;
    EXPECT_EQ(back.config_label, r.config_label);
    EXPECT_EQ(back.stats.edge_bytes_read, r.stats.edge_bytes_read);
    EXPECT_EQ(back.stats.interval_writebacks, r.stats.interval_writebacks);
    EXPECT_EQ(back.bpg.bank_wakes, r.bpg.bank_wakes);
    EXPECT_NEAR(back.streaming_time_ns, r.streaming_time_ns,
                1e-6 * (r.streaming_time_ns + 1));
  }
}

TEST(ReportRoundTrip, RejectsMalformedInput) {
  EXPECT_THROW(run_report_from_json("not json"), std::runtime_error);
  EXPECT_THROW(run_report_from_json("{\"config\":\"x\"}"),
               std::runtime_error);
  EXPECT_THROW(run_report_from_json("{\"config\":\"x\""),
               std::runtime_error);
}

TEST(ReportRoundTrip, RejectsInconsistentDerivedFields) {
  const Graph g = generate_rmat(10000, 60000, {}, 31337);
  const RunReport r = HyveMachine(HyveConfig::hyve_opt()).run(g,
                                                              Algorithm::kBfs);
  std::string json = report_to_json(r);
  const std::string key = "\"energy_pj\":";
  const auto pos = json.find(key);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, key.size(), "\"energy_pj\":1e30,\"was_energy_pj\":");
  EXPECT_THROW(run_report_from_json(json), std::runtime_error);
}

TEST(ParseHelpers, AlgorithmRoundTrip) {
  for (const Algorithm a : kAllAlgorithms) {
    const auto parsed = parse_algorithm(algorithm_name(a));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_EQ(parse_algorithm("pr"), Algorithm::kPageRank);
  EXPECT_EQ(parse_algorithm("SPMV"), Algorithm::kSpmv);
  EXPECT_FALSE(parse_algorithm("dijkstra").has_value());
}

TEST(ParseHelpers, DatasetRoundTrip) {
  for (const DatasetId id : kAllDatasets) {
    const auto parsed = parse_dataset(dataset_name(id));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, id);
  }
  EXPECT_EQ(parse_dataset("yt"), DatasetId::kYT);
  EXPECT_FALSE(parse_dataset("XX").has_value());
}

// Eight configs that differ only in memory-accounting knobs: same SRAM
// size and PU count (same P), same balance seed, same frontier mode, so
// every (algorithm, graph) pair shares one functional outcome.
std::vector<HyveConfig> memory_only_configs() {
  std::vector<HyveConfig> configs;
  const auto add = [&](const char* label, MemTech edge_tech, bool gating,
                       bool sharing, std::uint32_t edge_bytes) {
    HyveConfig cfg = HyveConfig::hyve_opt();
    cfg.label = label;
    cfg.edge_memory_tech = edge_tech;
    cfg.power_gating = gating;  // validate(): ReRAM edge memory only
    cfg.data_sharing = sharing;
    cfg.edge_bytes = edge_bytes;
    configs.push_back(cfg);
  };
  add("reram+pg+ds", MemTech::kReram, true, true, 8);
  add("reram+pg", MemTech::kReram, true, false, 8);
  add("reram+ds", MemTech::kReram, false, true, 8);
  add("reram", MemTech::kReram, false, false, 8);
  add("dram+ds", MemTech::kDram, false, true, 8);
  add("dram", MemTech::kDram, false, false, 8);
  add("reram+pg+ds+w", MemTech::kReram, true, true, 12);
  add("dram+ds+w", MemTech::kDram, false, true, 12);
  return configs;
}

// The Fig. 16 accelerator configs and the memory-only configs, each
// also with frontier block skipping where the config allows it (it needs
// the on-chip vertex level).
std::vector<HyveConfig> dense_and_frontier_configs() {
  std::vector<HyveConfig> configs = fig16_accelerator_configs();
  for (const HyveConfig& cfg : memory_only_configs()) configs.push_back(cfg);
  const std::size_t dense = configs.size();
  for (std::size_t i = 0; i < dense; ++i) {
    if (!configs[i].has_onchip_vertex_memory()) continue;
    HyveConfig frontier = configs[i];
    frontier.frontier_block_skipping = true;
    frontier.label += "+frontier";
    configs.push_back(frontier);
  }
  return configs;
}

// Distinct functional inputs of a grid, computed from the configs
// alone: (graph image, algorithm, P, frontier mode). The graph image is
// the graph key plus the balance seed when hash balancing is on.
std::size_t distinct_functional_inputs(const exp::SweepSpec& spec,
                                       exp::GraphCache& graphs) {
  std::set<std::tuple<std::string, std::string, std::uint32_t, bool>> keys;
  for (const exp::SweepCell& cell : exp::expand(spec)) {
    const HyveConfig& cfg = cell.config;
    std::string image = cell.graph_key;
    std::shared_ptr<const Graph> graph = graphs.acquire(cell.graph_key);
    if (cfg.hash_balance) {
      image += "/" + std::to_string(cfg.hash_balance_seed);
      graph = graph->hashed_remap_shared(cfg.hash_balance_seed);
    }
    const auto program = make_program(cell.algorithm);
    keys.emplace(image, program->name(),
                 HyveMachine(cfg).choose_num_intervals(
                     *graph, program->vertex_value_bytes()),
                 cfg.frontier_block_skipping);
  }
  return keys.size();
}

// The sweep's own pid-0 track (the analytic graph-cache hit rate) is the
// one part of a sweep trace that per-cell reference runs never write.
std::string without_sweep_track(const obs::Trace& trace) {
  std::ostringstream os;
  trace.write(os);
  std::istringstream in(os.str());
  std::string kept;
  for (std::string line; std::getline(in, line);)
    if (line.find("\"pid\":0,") == std::string::npos) kept += line + '\n';
  return kept;
}

TEST(FunctionalCache, MemoizesAcrossMemoryConfigsWithIdenticalOutput) {
  exp::SweepSpec spec;
  spec.configs = dense_and_frontier_configs();
  spec.algorithms.assign(std::begin(kAllAlgorithms), std::end(kAllAlgorithms));
  spec.graphs = {"g1"};
  ASSERT_GE(spec.configs.size(), 20u);

  // Reference: every cell run from scratch through HyveMachine::run,
  // with the trace pid the engine gives that cell.
  exp::GraphCache reference_graphs;
  add_test_graphs(reference_graphs);
  std::ostringstream reference;
  exp::ResultSink reference_sink(reference, exp::ResultSink::Format::kJsonl);
  obs::Trace reference_trace;
  for (const exp::SweepCell& cell : exp::expand(spec))
    reference_sink.write(
        cell, HyveMachine(cell.config)
                  .run(reference_graphs.base(cell.graph_key), cell.algorithm,
                       &reference_trace,
                       static_cast<std::uint32_t>(cell.index) + 1));
  const std::string reference_trace_bytes =
      without_sweep_track(reference_trace);
  ASSERT_NE(reference_trace_bytes.find("\"pid\":1,"), std::string::npos);
  const std::size_t expected_misses =
      distinct_functional_inputs(spec, reference_graphs);
  // Fewer vertex programs than cells: most cells replay an outcome.
  ASSERT_LT(4 * expected_misses, spec.size());

  for (const int jobs : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
    exp::GraphCache graphs;
    add_test_graphs(graphs);
    exp::PartitionCache partitions;
    exp::FunctionalCache functional;
    exp::SweepEngine engine(graphs, partitions, functional);
    std::ostringstream os;
    exp::ResultSink sink(os, exp::ResultSink::Format::kJsonl);
    obs::Trace trace;
    exp::SweepOptions options;
    options.jobs = jobs;
    options.trace = &trace;
    engine.run(spec, options, &sink);
    // Byte-identical validated report JSON and trace: the memoised
    // functional outcome feeds the same accounting walk.
    EXPECT_EQ(os.str(), reference.str());
    EXPECT_EQ(without_sweep_track(trace), reference_trace_bytes);
    EXPECT_EQ(functional.misses(), expected_misses);
    EXPECT_EQ(functional.hits(), spec.size() - expected_misses);
  }
}

TEST(SweepEngine, TwoArgumentEngineMemoisesFunctionalPhases) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::SweepEngine engine(graphs, partitions);
  EXPECT_EQ(engine.functional_cache().misses(), 0u);

  exp::SweepSpec spec = small_spec();
  HyveConfig frontier = HyveConfig::hyve_opt();
  frontier.frontier_block_skipping = true;
  frontier.label = "frontier";
  spec.configs.push_back(frontier);
  exp::SweepOptions options;
  options.jobs = 4;
  engine.run(spec, options);

  // One vertex-program run per (graph image, algorithm, P, frontier
  // mode); every other cell replays it.
  const std::size_t inputs = distinct_functional_inputs(spec, graphs);
  EXPECT_LT(inputs, spec.size());
  EXPECT_EQ(engine.functional_cache().misses(), inputs);
  EXPECT_EQ(engine.functional_cache().hits(), spec.size() - inputs);

  // The engine keeps its cache across runs: a second sweep only hits.
  engine.run(spec, options);
  EXPECT_EQ(engine.functional_cache().misses(), inputs);
  EXPECT_EQ(engine.functional_cache().hits(), 2 * spec.size() - inputs);
}

TEST(FunctionalCache, FrontierAndDenseOutcomesGetDistinctEntries) {
  exp::GraphCache graphs;
  add_test_graphs(graphs);
  exp::PartitionCache partitions;
  exp::FunctionalCache functional;

  HyveConfig dense = HyveConfig::hyve_opt();
  HyveConfig frontier = HyveConfig::hyve_opt();
  frontier.frontier_block_skipping = true;
  frontier.label = "frontier";
  exp::run_cached(graphs, partitions, functional, dense, Algorithm::kBfs,
                  "g1");
  exp::run_cached(graphs, partitions, functional, frontier,
                  Algorithm::kBfs, "g1");
  EXPECT_EQ(functional.misses(), 2u);
  EXPECT_EQ(functional.hits(), 0u);
  // Replays are hits, and reports stay equal to direct runs.
  const RunReport cached = exp::run_cached(
      graphs, partitions, functional, frontier, Algorithm::kBfs, "g1");
  EXPECT_EQ(functional.hits(), 1u);
  const RunReport direct =
      HyveMachine(frontier).run(graphs.base("g1"), Algorithm::kBfs);
  EXPECT_EQ(report_to_json(cached), report_to_json(direct));
}

FunctionalOutcome tagged_outcome(std::uint32_t num_intervals) {
  FunctionalOutcome outcome;
  outcome.num_intervals = num_intervals;
  return outcome;
}

TEST(FunctionalCache, HitRateIsHitsOverRequests) {
  exp::FunctionalCache cache;
  EXPECT_EQ(cache.hit_rate(), 0.0);
  const exp::FunctionalKey key{"g", "BFS", "interval", 4, false};
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return tagged_outcome(4);
  };
  const auto first = cache.acquire(key, build);
  EXPECT_EQ(cache.hit_rate(), 0.0);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(cache.acquire(key, build).get(), first.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.75);
}

TEST(FunctionalCache, EveryKeyFieldSeparatesOutcomes) {
  const exp::FunctionalKey base{"g", "BFS", "interval", 4, false};
  std::vector<exp::FunctionalKey> keys(6, base);
  keys[1].graph_key = exp::GraphCache::balanced_key("g", 1);
  keys[2].algorithm = "PR";
  keys[3].partitioner = "hep:tau=2";
  keys[4].num_intervals = 8;
  keys[5].frontier = true;

  exp::FunctionalCache cache;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto outcome = cache.acquire(keys[i], [i] {
      return tagged_outcome(static_cast<std::uint32_t>(100 + i));
    });
    EXPECT_EQ(outcome->num_intervals, 100 + i) << i;
  }
  EXPECT_EQ(cache.misses(), keys.size());
  EXPECT_EQ(cache.hits(), 0u);
  // Each key replays its own outcome.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto outcome =
        cache.acquire(keys[i], [] { return tagged_outcome(0); });
    EXPECT_EQ(outcome->num_intervals, 100 + i) << i;
  }
  EXPECT_EQ(cache.hits(), keys.size());
}

TEST(FunctionalCache, ThrowingBuildIsRetried) {
  exp::FunctionalCache cache;
  const exp::FunctionalKey key{"g", "BFS", "interval", 4, false};
  EXPECT_THROW(cache.acquire(key,
                             []() -> FunctionalOutcome {
                               throw std::runtime_error("build failed");
                             }),
               std::runtime_error);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  const auto outcome = cache.acquire(key, [] { return tagged_outcome(4); });
  EXPECT_EQ(outcome->num_intervals, 4u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.acquire(key, [] { return tagged_outcome(0); }).get(),
            outcome.get());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ParseHelpers, ConfigLabelRoundTrip) {
  for (const HyveConfig& cfg : fig16_accelerator_configs()) {
    const auto by_label = parse_config_label(cfg.label);
    ASSERT_TRUE(by_label.has_value()) << cfg.label;
    EXPECT_EQ(by_label->label, cfg.label);
    EXPECT_EQ(by_label->edge_memory_tech, cfg.edge_memory_tech);
    EXPECT_EQ(by_label->sram_bytes_per_pu, cfg.sram_bytes_per_pu);
  }
  EXPECT_EQ(parse_config_label("opt")->label, "acc+HyVE-opt");
  EXPECT_EQ(parse_config_label("sd")->label, "acc+SRAM+DRAM");
  EXPECT_FALSE(parse_config_label("bogus").has_value());
}

}  // namespace
}  // namespace hyve
