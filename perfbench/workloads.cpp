#include "workloads.hpp"

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/pagerank.hpp"
#include "algos/runner.hpp"
#include "core/report_io.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_cc.hpp"
#include "dynamic/requests.hpp"
#include "exp/sweep.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using hyve::FunctionalOutcome;
using hyve::Graph;
using hyve::HyveConfig;
using hyve::HyveMachine;
using hyve::Partitioning;
using hyve::RunReport;
using hyve::VertexProgram;

// Counts one functional outcome into the algos.* tallies.
void count_functional(Counts& c, const FunctionalOutcome& f) {
  c["algos.functional_calls"] += 1;
  c["algos.iterations"] += f.result.iterations;
  c["algos.edges"] += static_cast<double>(f.result.edges_traversed);
  c["algos.writes"] += static_cast<double>(f.result.destination_writes);
}

// The path of HyveMachine::run(graph, program) followed through its
// public pieces, one span per layer: the §4.3 remap (memoised on the
// graph), partition, SoA transpose, functional phase, accounting, and
// the validated report JSON hyve_sim emits.
void replay_run(const HyveMachine& machine, const Graph& graph,
                       VertexProgram& program, Counts& c, RunReport& report) {
  const HyveConfig& config = machine.config();
  std::shared_ptr<const Graph> balanced;
  const Graph* image = &graph;
  if (config.hash_balance) {
    const Span span("graph.remap");
    balanced = graph.hashed_remap_shared(config.hash_balance_seed);
    image = balanced.get();
  }
  const std::uint32_t p =
      machine.choose_num_intervals(*image, program.vertex_value_bytes());
  std::optional<Partitioning> schedule;
  {
    const Span span("graph.partition");
    schedule.emplace(
        hyve::make_partitioner(config.partitioner)->partition(*image, p));
  }
  c["graph.partition_calls"] += 1;
  {
    const Span span("graph.soa_transpose");
    schedule->edge_columns();
  }
  c["graph.soa_bytes"] += static_cast<double>(schedule->lazy_bytes());
  FunctionalOutcome outcome;
  {
    const Span span("algos.functional", -1, program.name());
    outcome = machine.run_functional_phase(*image, *schedule, program);
  }
  count_functional(c, outcome);
  {
    const Span span("core.account");
    report = machine.run_with_functional(*image, *schedule, program, outcome);
  }
  const Span span("core.report");
  c["core.report_bytes"] +=
      static_cast<double>(hyve::validated_report_json(report).size());
}

// ---------------------------------------------------------------- grid
//
// The 75-cell paper grid exactly as `hyve_experiments --jobs 4` runs it:
// SweepEngine with fresh graph and partition caches every round (each
// new process pays for them), no functional cache (off by default), and
// every record written through a JSONL ResultSink. The grid's inputs
// are the paper's five datasets, whose generator seeds are part of the
// dataset specs, so this workload ignores --seed.
class GridWorkload final : public Workload {
 public:
  std::string name() const override { return "grid"; }
  int jobs() const override { return kJobs; }
  RefKernel::Shape ref_shape() const override { return {250'000, 2'000'000, 0.12}; }

  void setup() override {
    spec_ = hyve::exp::SweepSpec::full_grid();
    for (const hyve::DatasetId id : hyve::kAllDatasets) {
      const Graph* g;
      {
        const Span span("graph.generate", -1, hyve::dataset_name(id));
        g = &hyve::dataset_graph(id);
      }
      // The balanced images are memoised on the process-wide dataset
      // graphs, so the first grid would pay the remap; do it here.
      std::set<std::uint64_t> seeds;
      for (const HyveConfig& c : spec_.configs)
        if (c.hash_balance) seeds.insert(c.hash_balance_seed);
      for (const std::uint64_t seed : seeds) {
        const Span span("graph.remap", -1, hyve::dataset_name(id));
        g->hashed_remap_shared(seed);
      }
    }
  }

  void round(bool traced, Counts& c) override {
    if (traced) return replay(c);
    hyve::exp::GraphCache graphs;
    hyve::exp::PartitionCache partitions;
    hyve::exp::SweepEngine engine(graphs, partitions);
    std::ostringstream out;
    hyve::exp::ResultSink sink(out, hyve::exp::ResultSink::Format::kJsonl);
    hyve::exp::SweepOptions options;
    options.jobs = kJobs;
    const auto results = engine.run(spec_, options, &sink);
    reports_.clear();
    for (const auto& r : results) reports_.push_back(r.report);
    records_ = split_lines(out.str());
  }

  void check_round(Checker& checker) override {
    if (records_.size() != spec_.size())
      checker.fail("grid emitted " + std::to_string(records_.size()) +
                   " records, expected " + std::to_string(spec_.size()));
    for (std::size_t i = 0; i < records_.size(); ++i)
      checker.record_bytes(i, records_[i], "grid cell " + std::to_string(i));
  }

  const std::vector<RunReport>& reports() const override { return reports_; }

 private:
  static constexpr int kJobs = 4;

  static std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

  // SweepEngine::run's cell loop (run_cached + ResultSink) through the
  // same public caches and worker pool, with spans. The first worker to
  // need a schedule builds it and its SoA image under a benchmark-side
  // key lock (the PartitionCache would make the others wait on its
  // entry lock all the same), so build time and waiting are told apart.
  void replay(Counts& c) {
    hyve::exp::GraphCache graphs;
    hyve::exp::PartitionCache partitions;
    const std::vector<hyve::exp::SweepCell> cells = hyve::exp::expand(spec_);
    using Key = std::tuple<std::string, std::string, std::uint32_t>;
    struct KeySlot {
      std::mutex mu;
      bool built = false;  // guarded by mu
    };
    std::mutex slots_mu;  // guards slots
    std::map<Key, std::unique_ptr<KeySlot>> slots;
    std::vector<RunReport> reports(cells.size());
    std::vector<std::string> records(cells.size());
    std::vector<Counts> cell_counts(cells.size());

    hyve::exp::parallel_cells(cells.size(), kJobs, [&](std::size_t i) {
      const hyve::exp::SweepCell& cell = cells[i];
      const int id = static_cast<int>(i);
      Counts& cc = cell_counts[i];
      const Span cell_span("exp.cell", id, cell.graph_key);
      const HyveMachine machine(cell.config);
      const auto program = hyve::make_program(cell.algorithm);
      std::shared_ptr<const Graph> graph;
      std::string schedule_key = cell.graph_key;
      {
        const Span span("exp.graph_cache", id);
        graph = graphs.acquire(cell.graph_key);
        if (cell.config.hash_balance) {
          graph = graphs.acquire_balanced(cell.graph_key,
                                          cell.config.hash_balance_seed);
          schedule_key = hyve::exp::GraphCache::balanced_key(
              cell.graph_key, cell.config.hash_balance_seed);
        }
      }
      const std::uint32_t p =
          machine.choose_num_intervals(*graph, program->vertex_value_bytes());
      const Key key{schedule_key, cell.config.partitioner.to_string(), p};
      KeySlot* slot;
      {
        const std::scoped_lock lock(slots_mu);
        auto& entry = slots[key];
        if (!entry) entry = std::make_unique<KeySlot>();
        slot = entry.get();
      }
      std::unique_lock<std::mutex> key_lock(slot->mu, std::try_to_lock);
      if (!key_lock.owns_lock()) {
        const Span span("exp.wait", id);
        key_lock.lock();
      }
      std::shared_ptr<const Partitioning> schedule;
      if (!slot->built) {
        slot->built = true;
        {
          const Span span("graph.partition", id);
          schedule = partitions.acquire(schedule_key, *graph, p,
                                        cell.config.partitioner);
        }
        cc["graph.partition_calls"] += 1;
        {
          const Span span("graph.soa_transpose", id);
          schedule->edge_columns();
        }
        cc["graph.soa_bytes"] += static_cast<double>(schedule->lazy_bytes());
      } else {
        const Span span("exp.partition_cache", id);
        schedule = partitions.acquire(schedule_key, *graph, p,
                                      cell.config.partitioner);
      }
      key_lock.unlock();
      FunctionalOutcome outcome;
      {
        const Span span("algos.functional", id, program->name());
        outcome = machine.run_functional_phase(*graph, *schedule, *program);
      }
      count_functional(cc, outcome);
      {
        const Span span("core.account", id);
        reports[i] = machine.run_with_functional(*graph, *schedule, *program,
                                                 outcome);
      }
      const Span span("core.report", id);
      RunReport annotated = reports[i];
      annotated.config_label += "@" + cell.graph_key;  // ResultSink's label
      records[i] = hyve::validated_report_json(annotated);
      cc["core.report_bytes"] += static_cast<double>(records[i].size() + 1);
    });

    for (const Counts& cc : cell_counts)
      for (const auto& [k, v] : cc) c[k] += v;
    c["exp.graph_cache.loads"] = static_cast<double>(graphs.loads());
    c["exp.partition_cache.builds"] = static_cast<double>(partitions.builds());
    double hits = 0;
    for (const auto& [strategy, stats] : partitions.strategy_stats())
      hits += static_cast<double>(stats.hits);
    c["exp.partition_cache.hits"] = hits;
    reports_ = std::move(reports);
    records_ = std::move(records);
  }

  hyve::exp::SweepSpec spec_;
  std::vector<RunReport> reports_;
  std::vector<std::string> records_;
};

// -------------------------------------------------------------- bigsim
//
// `hyve_sim --rmat VxE --algo X` for BFS, CC and PR in turn on one
// seeded R-MAT far larger than the last-level cache. Each run builds its
// own partition and SoA image; the remap is memoised on the graph and
// paid in set-up.
class BigsimWorkload final : public Workload {
 public:
  explicit BigsimWorkload(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "bigsim"; }
  int jobs() const override { return 1; }
  RefKernel::Shape ref_shape() const override { return {kVertices, kEdges / 4, 0.16}; }

  void setup() override {
    {
      const Span span("graph.generate", -1, "rmat");
      graph_ = hyve::generate_rmat(kVertices, kEdges, {}, seed_);
    }
    const HyveConfig& config = machine_.config();
    if (config.hash_balance) {
      const Span span("graph.remap");
      image_ = graph_.hashed_remap_shared(config.hash_balance_seed);
    }
  }

  // The reference runs on the image the machine simulates.
  void prepare() override {
    reference_ = BigsimReference::compute(image_ ? *image_ : graph_);
  }

  void round(bool traced, Counts& c) override {
    bfs_ = hyve::BfsProgram();
    cc_ = hyve::CcProgram();
    pr_ = hyve::PageRankProgram();
    VertexProgram* programs[] = {&bfs_, &cc_, &pr_};
    reports_.assign(3, RunReport{});
    for (int i = 0; i < 3; ++i) {
      if (traced) {
        replay_run(machine_, graph_, *programs[i], c, reports_[i]);
      } else {
        reports_[i] = machine_.run(graph_, *programs[i]);
        hyve::validate_report_round_trip(reports_[i]);
      }
    }
  }

  void check_round(Checker& checker) override {
    const std::string errors[] = {check_bfs(reference_, bfs_),
                                  check_cc(reference_, cc_),
                                  check_pr(reference_, pr_)};
    for (std::size_t i = 0; i < 3; ++i) {
      const std::string what = "bigsim " + reports_[i].algorithm;
      if (checker.report(i, reports_[i], what) && !errors[i].empty())
        checker.fail(what + ": " + errors[i]);
    }
  }

  const std::vector<RunReport>& reports() const override { return reports_; }

 private:
  static constexpr hyve::VertexId kVertices = 1'000'000;
  static constexpr std::uint64_t kEdges = 8'000'000;

  std::uint64_t seed_;
  const HyveMachine machine_{HyveConfig::hyve_opt()};
  Graph graph_;
  std::shared_ptr<const Graph> image_;
  BigsimReference reference_;
  hyve::BfsProgram bfs_;
  hyve::CcProgram cc_;
  hyve::PageRankProgram pr_;
  std::vector<RunReport> reports_;
};

// -------------------------------------------------------------- evolve
//
// The §5 / §7.4.2 dynamic flow of examples/dynamic_social_network.cpp on
// LJ: a seeded 45/45/5/5 request burst applied to a DynamicGraphStore
// and mirrored into IncrementalCc, then a snapshot, symmetrised and
// simulated under CC, and the incremental component count. Every round
// starts from the set-up state (restored outside the timed section) and
// applies the same burst, so all rounds do identical work and the median
// does not depend on how many rounds fit in a run.
class EvolveWorkload final : public Workload {
 public:
  explicit EvolveWorkload(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "evolve"; }
  int jobs() const override { return 1; }
  RefKernel::Shape ref_shape() const override { return {250'000, 2'000'000, 0.12}; }

  void setup() override {
    const Graph* lj;
    {
      const Span span("graph.generate", -1, "LJ");
      lj = &hyve::dataset_graph(hyve::DatasetId::kLJ);
    }
    const Span span("dynamic.store_build");
    hyve::DynamicGraphOptions options;
    options.num_intervals = machine_.choose_num_intervals(*lj, 4);
    store_ = std::make_unique<hyve::DynamicGraphStore>(*lj, options);
    incremental_ = std::make_unique<hyve::IncrementalCc>(*store_);
  }

  void prepare() override {
    const Graph& lj = hyve::dataset_graph(hyve::DatasetId::kLJ);
    pristine_store_ = std::make_unique<hyve::DynamicGraphStore>(*store_);
    // Copies keep pointing at store_, which before_round() restores in
    // place, so the pristine index stays valid for every round.
    pristine_incremental_ = std::make_unique<hyve::IncrementalCc>(*incremental_);
    initial_edges_ = store_->num_edges();
    burst_ = hyve::generate_requests(lj, kBurst, hyve::DynamicRequestMix{},
                                     seed_);
  }

  void before_round() override {
    *store_ = *pristine_store_;
    *incremental_ = *pristine_incremental_;
  }

  void round(bool traced, Counts& c) override {
    {
      const Span span("dynamic.apply");
      apply_burst();
    }
    Graph snapshot;
    {
      const Span span("dynamic.snapshot");
      const Graph raw = store_->snapshot();
      snapshot_edges_ = raw.num_edges();
      snapshot = hyve::symmetrized(raw);
    }
    cc_ = hyve::CcProgram();
    reports_.assign(1, RunReport{});
    if (traced) {
      replay_run(machine_, snapshot, cc_, c, reports_[0]);
    } else {
      reports_[0] = machine_.run(snapshot, cc_);
      hyve::validate_report_round_trip(reports_[0]);
    }
    {
      const Span span("dynamic.incremental_cc");
      components_ = incremental_->num_components();
    }
    if (!traced) return;
    c["dynamic.requests"] += static_cast<double>(burst_.size());
    c["dynamic.accepted"] += static_cast<double>(accepted_);
    c["dynamic.incremental_recomputes"] += static_cast<double>(
        incremental_->recompute_count() -
        pristine_incremental_->recompute_count());
    c["dynamic.overflow_chunks"] =
        static_cast<double>(store_->overflow_chunks());
    c["dynamic.preprocess_count"] =
        static_cast<double>(store_->preprocess_count());
  }

  void check_round(Checker& checker) override {
    checker.record(
        Checker::edges_agree(store_->num_edges(), initial_edges_, adds_,
                             deletes_) &&
            snapshot_edges_ == store_->num_edges(),
        "evolve burst: store holds " + std::to_string(store_->num_edges()) +
            " edges (snapshot " + std::to_string(snapshot_edges_) +
            "), expected " +
            std::to_string(initial_edges_ + adds_ - deletes_));
    const std::uint64_t batch = count_components(cc_.labels());
    if (checker.report(0, reports_[0], "evolve CC") &&
        !Checker::components_agree(components_, batch))
      checker.fail("evolve CC: incremental count " +
                   std::to_string(components_) + " != batch count " +
                   std::to_string(batch));
  }

  const std::vector<RunReport>& reports() const override { return reports_; }

 private:
  // Sized so applying the burst takes about half of a round.
  static constexpr std::uint64_t kBurst = 1'200'000;

  void apply_burst() {
    adds_ = deletes_ = accepted_ = 0;
    for (const hyve::DynamicRequest& req : burst_) {
      switch (req.type) {
        case hyve::DynamicRequestType::kAddEdge:
          if (store_->add_edge(req.edge)) {
            incremental_->on_add_edge(req.edge);
            ++adds_;
            ++accepted_;
          }
          break;
        case hyve::DynamicRequestType::kDeleteEdge:
          if (store_->delete_edge(req.edge)) {
            incremental_->on_delete_edge(req.edge);
            ++deletes_;
            ++accepted_;
          }
          break;
        case hyve::DynamicRequestType::kAddVertex:
          incremental_->on_add_vertex(store_->add_vertex());
          ++accepted_;
          break;
        case hyve::DynamicRequestType::kDeleteVertex:
          if (store_->delete_vertex(req.vertex)) {
            incremental_->on_delete_vertex(req.vertex);
            ++accepted_;
          }
          break;
      }
    }
  }

  std::uint64_t seed_;
  const HyveMachine machine_{HyveConfig::hyve_opt()};
  std::unique_ptr<hyve::DynamicGraphStore> store_;
  std::unique_ptr<hyve::IncrementalCc> incremental_;
  std::unique_ptr<hyve::DynamicGraphStore> pristine_store_;
  std::unique_ptr<hyve::IncrementalCc> pristine_incremental_;
  std::vector<hyve::DynamicRequest> burst_;
  std::uint64_t initial_edges_ = 0;
  std::uint64_t adds_ = 0;
  std::uint64_t deletes_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t snapshot_edges_ = 0;
  std::uint64_t components_ = 0;
  hyve::CcProgram cc_;
  std::vector<RunReport> reports_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "grid") return std::make_unique<GridWorkload>();
  if (name == "bigsim") return std::make_unique<BigsimWorkload>(seed);
  if (name == "evolve") return std::make_unique<EvolveWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
