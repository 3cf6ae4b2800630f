// Pins every shipped program's process_block_soa kernel to the per-edge
// process_edge reference: on the paper graph, R-MATs and randomly
// generated graphs, partition widths and mid-run program states, the
// block kernel must produce the same per-block write counts, the same
// changed-vertex sets and the same final state as running process_edge
// over block_soa(x, y).edge(i) in order; whole runs (run_functional,
// run_frontier) must match the per-edge loop. Also pins the on-demand
// weight-hash column to Graph::edge_weight and its memory contract,
// proves per-iteration pattern reuse is invisible in results, block
// traces, run reports and Chrome traces, and exercises the lock-free
// lazy publication under concurrency (run under -L sweep-engine so the
// ThreadSanitizer CI pass covers it).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/frontier.hpp"
#include "algos/gas.hpp"
#include "algos/pagerank.hpp"
#include "algos/spmv.hpp"
#include "algos/sssp.hpp"
#include "core/machine.hpp"
#include "core/report_io.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

struct ProgramCase {
  const char* label;
  std::function<std::unique_ptr<VertexProgram>()> make;
  std::function<void(const VertexProgram&, const VertexProgram&)> expect_eq;
};

std::vector<ProgramCase> all_programs() {
  std::vector<ProgramCase> cases;
  cases.push_back(
      {"BFS", [] { return std::make_unique<BfsProgram>(); },
       [](const VertexProgram& a, const VertexProgram& b) {
         EXPECT_EQ(dynamic_cast<const BfsProgram&>(a).distances(),
                   dynamic_cast<const BfsProgram&>(b).distances());
       }});
  cases.push_back(
      {"CC", [] { return std::make_unique<CcProgram>(); },
       [](const VertexProgram& a, const VertexProgram& b) {
         EXPECT_EQ(dynamic_cast<const CcProgram&>(a).labels(),
                   dynamic_cast<const CcProgram&>(b).labels());
       }});
  cases.push_back(
      {"PR", [] { return std::make_unique<PageRankProgram>(); },
       [](const VertexProgram& a, const VertexProgram& b) {
         EXPECT_EQ(dynamic_cast<const PageRankProgram&>(a).ranks(),
                   dynamic_cast<const PageRankProgram&>(b).ranks());
       }});
  cases.push_back(
      {"SSSP", [] { return std::make_unique<SsspProgram>(); },
       [](const VertexProgram& a, const VertexProgram& b) {
         EXPECT_EQ(dynamic_cast<const SsspProgram&>(a).distances(),
                   dynamic_cast<const SsspProgram&>(b).distances());
       }});
  cases.push_back(
      {"SpMV", [] { return std::make_unique<SpmvProgram>(); },
       [](const VertexProgram& a, const VertexProgram& b) {
         EXPECT_EQ(dynamic_cast<const SpmvProgram&>(a).result(),
                   dynamic_cast<const SpmvProgram&>(b).result());
       }});
  const auto gas_eq = [](const VertexProgram& a, const VertexProgram& b) {
    EXPECT_EQ(dynamic_cast<const GasProgram<std::uint32_t>&>(a).values(),
              dynamic_cast<const GasProgram<std::uint32_t>&>(b).values());
  };
  cases.push_back({"REACH",
                   []() -> std::unique_ptr<VertexProgram> {
                     return std::make_unique<GasProgram<std::uint32_t>>(
                         make_reachability_program(0));
                   },
                   gas_eq});
  cases.push_back({"WIDEST",
                   []() -> std::unique_ptr<VertexProgram> {
                     return std::make_unique<GasProgram<std::uint32_t>>(
                         make_widest_path_program(0));
                   },
                   gas_eq});
  return cases;
}

Graph rmat_graph() { return generate_rmat(20000, 120000, {}, 888); }

// The per-edge reference over one block: process_edge on each edge of
// the view, in order, marking changed destinations.
std::uint64_t reference_block(VertexProgram& program,
                              const EdgeBlockSoA& block,
                              std::vector<char>* changed) {
  std::uint64_t writes = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Edge e = block.edge(i);
    if (program.process_edge(e)) {
      ++writes;
      if (changed != nullptr) (*changed)[e.dst] = 1;
    }
  }
  return writes;
}

// One full destination-major reference pass through `part`.
std::uint64_t reference_pass(VertexProgram& program, const Partitioning& part,
                             std::vector<char>* changed) {
  std::uint64_t writes = 0;
  for (std::uint32_t y = 0; y < part.num_intervals(); ++y)
    for (std::uint32_t x = 0; x < part.num_intervals(); ++x)
      writes += reference_block(program, part.block_soa(x, y), changed);
  return writes;
}

// The per-edge functional loop: one virtual call per edge, in the
// schedule's block order or, without one, the graph's edge-list order.
FunctionalResult reference_run_functional(const Graph& graph,
                                          VertexProgram& program,
                                          const Partitioning* schedule) {
  program.init(graph);
  FunctionalResult result;
  bool more = true;
  while (more && result.iterations < program.max_iterations()) {
    if (schedule != nullptr) {
      result.destination_writes += reference_pass(program, *schedule, nullptr);
    } else {
      for (const Edge& e : graph.edges())
        result.destination_writes += program.process_edge(e) ? 1 : 0;
    }
    result.edges_traversed += graph.num_edges();
    ++result.iterations;
    more = program.end_iteration(result.iterations);
  }
  return result;
}

TEST(SoaKernels, MatchPerEdgeReferenceOnRandomBlocksAndStates) {
  std::mt19937 rng(0xC0FFEE);
  const auto cases = all_programs();
  for (int round = 0; round < 4; ++round) {
    const VertexId v = 500 + static_cast<VertexId>(rng() % 3000);
    const std::uint64_t e = static_cast<std::uint64_t>(v) * (2 + rng() % 5);
    const std::uint32_t p = 1 + rng() % 40;
    const std::uint32_t warmup = rng() % 3;
    const Graph g = generate_rmat(v, e, {}, rng());
    const Partitioning part(g, p);
    part.edge_columns().ensure_weight_hashes();
    SCOPED_TRACE(::testing::Message() << "V=" << v << " E=" << e
                                      << " P=" << p << " warmup=" << warmup);
    for (const ProgramCase& pc : cases) {
      SCOPED_TRACE(pc.label);
      const auto a = pc.make();  // stays on the per-edge reference
      const auto b = pc.make();  // switches to the kernel for the checked pass
      a->init(g);
      b->init(g);
      // Identical reference warm-up passes put both programs in the
      // same (possibly mid-convergence) state before they diverge.
      bool live = true;
      std::uint32_t completed = 0;
      for (std::uint32_t w = 0; live && w < warmup; ++w) {
        reference_pass(*a, part, nullptr);
        reference_pass(*b, part, nullptr);
        ++completed;
        live = a->end_iteration(completed);
        ASSERT_EQ(live, b->end_iteration(completed));
      }
      // The checked pass: block by block, the kernel must report the
      // same write count and mark the same changed vertices.
      std::vector<char> changed_a(g.num_vertices(), 0);
      std::vector<char> changed_b(g.num_vertices(), 0);
      for (std::uint32_t y = 0; y < p; ++y) {
        for (std::uint32_t x = 0; x < p; ++x) {
          const EdgeBlockSoA block = part.block_soa(x, y);
          const std::uint64_t wa = reference_block(*a, block, &changed_a);
          const std::uint64_t wb = b->process_block_soa(block, &changed_b);
          ASSERT_EQ(wa, wb) << "block (" << x << ", " << y << ")";
        }
      }
      EXPECT_EQ(changed_a, changed_b);
      ++completed;
      EXPECT_EQ(a->end_iteration(completed), b->end_iteration(completed));
      pc.expect_eq(*a, *b);
    }
  }
}

// Drives two instances of the `label` program in lockstep through
// every iteration of a P=8 schedule — one through the per-edge
// reference, one through process_block_soa — comparing write counts and
// changed sets per block and the convergence decision per iteration;
// then a whole run_functional against the per-edge loop, counts and
// outputs. Runs on the paper graph and an R-MAT.
void expect_every_block_matches_per_edge(const std::string& label) {
  const auto cases = all_programs();
  const auto found =
      std::find_if(cases.begin(), cases.end(),
                   [&](const ProgramCase& pc) { return pc.label == label; });
  ASSERT_NE(found, cases.end()) << label;
  const ProgramCase& pc = *found;
  for (const Graph& g : {paper_example_graph(), rmat_graph()}) {
    const Partitioning part(g, 8);
    SCOPED_TRACE(::testing::Message() << pc.label << " V="
                                      << g.num_vertices());
    if (pc.make()->reads_edge_weights())
      part.edge_columns().ensure_weight_hashes();
    const auto by_edge = pc.make();
    const auto by_block = pc.make();
    by_edge->init(g);
    by_block->init(g);
    bool more = true;
    std::uint32_t iter = 0;
    while (more && iter < by_edge->max_iterations()) {
      for (std::uint32_t y = 0; y < 8; ++y) {
        for (std::uint32_t x = 0; x < 8; ++x) {
          const EdgeBlockSoA block = part.block_soa(x, y);
          std::vector<char> ref_changed(g.num_vertices(), 0);
          std::vector<char> blk_changed(g.num_vertices(), 0);
          const std::uint64_t ref_writes =
              reference_block(*by_edge, block, &ref_changed);
          const std::uint64_t blk_writes =
              by_block->process_block_soa(block, &blk_changed);
          ASSERT_EQ(ref_writes, blk_writes)
              << "block (" << x << ", " << y << ") iteration " << iter;
          ASSERT_EQ(ref_changed, blk_changed)
              << "block (" << x << ", " << y << ") iteration " << iter;
        }
      }
      ++iter;
      more = by_edge->end_iteration(iter);
      ASSERT_EQ(more, by_block->end_iteration(iter)) << "iteration " << iter;
    }
    pc.expect_eq(*by_edge, *by_block);

    for (const Partitioning* schedule :
         std::initializer_list<const Partitioning*>{&part, nullptr}) {
      const auto ref_program = pc.make();
      const auto run_program = pc.make();
      const FunctionalResult ref =
          reference_run_functional(g, *ref_program, schedule);
      const FunctionalResult run = run_functional(g, *run_program, schedule);
      EXPECT_EQ(ref.iterations, run.iterations);
      EXPECT_EQ(ref.edges_traversed, run.edges_traversed);
      EXPECT_EQ(ref.destination_writes, run.destination_writes);
      pc.expect_eq(*ref_program, *run_program);
    }
  }
}

TEST(SoaKernels, BfsMatchesPerEdge) {
  expect_every_block_matches_per_edge("BFS");
}

TEST(SoaKernels, CcMatchesPerEdge) {
  expect_every_block_matches_per_edge("CC");
}

TEST(SoaKernels, PageRankMatchesPerEdge) {
  expect_every_block_matches_per_edge("PR");
}

TEST(SoaKernels, SsspMatchesPerEdge) {
  expect_every_block_matches_per_edge("SSSP");
}

TEST(SoaKernels, SpmvMatchesPerEdge) {
  expect_every_block_matches_per_edge("SpMV");
}

TEST(SoaKernels, ReachabilityMatchesPerEdge) {
  expect_every_block_matches_per_edge("REACH");
}

TEST(SoaKernels, WidestPathMatchesPerEdge) {
  expect_every_block_matches_per_edge("WIDEST");
}

TEST(SoaKernels, DefaultKernelDelegatesToProcessEdge) {
  // A program that does NOT override process_block_soa must get the
  // base class's per-edge loop, including changed tracking.
  class CountingProgram final : public VertexProgram {
   public:
    std::string name() const override { return "count"; }
    std::uint32_t vertex_value_bytes() const override { return 4; }
    std::uint32_t max_iterations() const override { return 1; }
    void init(const Graph& graph) override {
      seen_.assign(graph.num_vertices(), 0);
    }
    bool process_edge(const Edge& e) override {
      // "Changes" a destination the first time an edge reaches it.
      return ++seen_[e.dst] == 1;
    }
    bool end_iteration(std::uint32_t) override { return false; }

   private:
    std::vector<std::uint32_t> seen_;
  };

  const Graph g = paper_example_graph();
  CountingProgram prog;
  prog.init(g);
  std::vector<char> changed(g.num_vertices(), 0);
  const std::uint64_t writes =
      prog.process_block_soa(g.edge_columns_shared()->all(), &changed);

  CountingProgram ref;
  ref.init(g);
  std::vector<char> ref_changed(g.num_vertices(), 0);
  std::uint64_t ref_writes = 0;
  for (const Edge& e : g.edges()) {
    if (ref.process_edge(e)) {
      ++ref_writes;
      ref_changed[e.dst] = 1;
    }
  }
  EXPECT_EQ(writes, ref_writes);
  EXPECT_EQ(changed, ref_changed);
}

TEST(SoaKernels, FrontierRunMatchesPerEdgeReference) {
  // run_frontier drives process_block_soa with the shared changed
  // vector; fixpoints must still match the dense per-edge reference.
  const Graph g = rmat_graph();
  const Partitioning part(g, 16);
  BfsProgram dense(0);
  reference_run_functional(g, dense, &part);
  BfsProgram skipped(0);
  const FrontierTrace trace = run_frontier(g, skipped, part);
  EXPECT_EQ(dense.distances(), skipped.distances());
  EXPECT_EQ(trace.num_intervals, 16u);
  EXPECT_EQ(trace.iterations(), trace.result.iterations);
}

TEST(FrontierTrace, SparseAccessorsMatchDenseExpansion) {
  const Graph g = rmat_graph();
  const Partitioning part(g, 16);
  BfsProgram bfs(0);
  const FrontierTrace trace = run_frontier(g, bfs, part);
  ASSERT_GT(trace.iterations(), 1u);
  std::vector<std::uint64_t> dense;
  std::vector<char> active;
  for (std::uint32_t iter = 0; iter < trace.iterations(); ++iter) {
    trace.expand_iteration(iter, dense);
    trace.source_activity(iter, active);
    std::uint64_t total = 0;
    std::uint64_t blocks = 0;
    for (std::uint32_t x = 0; x < 16; ++x) {
      bool row = false;
      for (std::uint32_t y = 0; y < 16; ++y) {
        const std::uint64_t e = trace.block_edges(iter, x, y);
        EXPECT_EQ(e, dense[static_cast<std::uint64_t>(x) * 16 + y]);
        total += e;
        blocks += e > 0 ? 1 : 0;
        row = row || e > 0;
      }
      EXPECT_EQ(active[x] != 0, row) << "row " << x << " iteration " << iter;
    }
    EXPECT_EQ(total, trace.edges_in_iteration(iter));
    EXPECT_EQ(blocks, trace.active_blocks_in_iteration(iter));
    // Sparse storage holds non-empty blocks only.
    EXPECT_EQ(trace.iteration_blocks[iter].size(), blocks);
  }
}

TEST(SoaKernels, WeightHashColumnMatchesEdgeWeight) {
  const Graph g = generate_rmat(2000, 12000, {}, 0x5EED);
  const Partitioning part(g, 8);
  part.edge_columns().ensure_weight_hashes();
  for (std::uint32_t y = 0; y < part.num_intervals(); ++y) {
    for (std::uint32_t x = 0; x < part.num_intervals(); ++x) {
      const EdgeBlockSoA soa = part.block_soa(x, y);
      ASSERT_EQ(soa.size(), part.block_edge_count(x, y));
      for (std::size_t i = 0; i < soa.size(); ++i) {
        const Edge e = soa.edge(i);
        ASSERT_EQ(soa.weight_hash[i], Graph::edge_weight_hash(e));
        for (const std::uint32_t max_weight : {1u, 7u, 64u, 255u})
          ASSERT_EQ(Graph::edge_weight_from_hash(soa.weight_hash[i],
                                                 max_weight),
                    Graph::edge_weight(e, max_weight));
      }
    }
  }
}

TEST(SoaKernels, WeightColumnIsBuiltOnlyForWeightedPrograms) {
  const Graph g = generate_rmat(3000, 18000, {}, 0x3E16);
  const Partitioning part(g, 8);
  const std::size_t columns_only = part.lazy_bytes();
  EXPECT_GE(columns_only, 2 * sizeof(VertexId) * g.num_edges());
  EXPECT_LT(columns_only, 3 * sizeof(VertexId) * g.num_edges());

  // Unweighted runs through both runners: the reuse index may appear,
  // the weight column must not.
  BfsProgram bfs;
  run_frontier(g, bfs, part);
  CcProgram cc;
  run_frontier(g, cc, part);
  PageRankProgram pr;
  run_functional(g, pr, &part);
  EXPECT_FALSE(part.edge_columns().has_weight_hashes());
  EXPECT_EQ(part.block_soa(0, 0).weight_hash, nullptr);
  const std::size_t unweighted = part.lazy_bytes();
  EXPECT_EQ(unweighted,
            columns_only + part.source_block_index().approx_bytes());

  // A weighted run adds exactly the weight column, and matches the
  // per-edge reference.
  SsspProgram sssp;
  run_frontier(g, sssp, part);
  EXPECT_TRUE(part.edge_columns().has_weight_hashes());
  EXPECT_EQ(part.lazy_bytes(),
            unweighted + sizeof(std::uint64_t) * g.num_edges());
  SsspProgram reference;
  const FunctionalResult ref = reference_run_functional(g, reference, &part);
  EXPECT_EQ(sssp.distances(), reference.distances());
  EXPECT_GT(ref.destination_writes, 0u);

  // A kernel handed a block without the column fails loudly instead of
  // dereferencing null.
  const Partitioning fresh(g, 8);
  SsspProgram unprepared;
  unprepared.init(g);
  EXPECT_THROW(unprepared.process_block_soa(fresh.edge_columns().all(), nullptr),
               InvariantError);
}

TEST(SoaKernels, PatternReuseIsTraceInvisible) {
  const struct {
    const char* label;
    Graph graph;
  } graphs[] = {
      {"rmat", generate_rmat(5000, 30000, {}, 0xBE7C)},
      {"ba", generate_barabasi_albert(5000, 6, 0xBE7C)},
  };
  const auto cases = all_programs();
  for (const auto& gc : graphs) {
    const Partitioning part(gc.graph, 16);
    for (const ProgramCase& pc : cases) {
      SCOPED_TRACE(::testing::Message() << gc.label << "/" << pc.label);
      const auto with = pc.make();
      const auto without = pc.make();
      const FrontierTrace on = run_frontier(
          gc.graph, *with, part, FrontierOptions{.pattern_reuse = true});
      const FrontierTrace off = run_frontier(
          gc.graph, *without, part, FrontierOptions{.pattern_reuse = false});
      // Replayed blocks are provably write-free, so reuse changes the
      // host's streaming volume and nothing else: results, iteration
      // counts and the per-iteration block traces are identical.
      EXPECT_EQ(on.result.iterations, off.result.iterations);
      EXPECT_EQ(on.result.destination_writes, off.result.destination_writes);
      EXPECT_EQ(on.result.edges_traversed, off.result.edges_traversed);
      EXPECT_EQ(off.edges_skipped, 0u);
      EXPECT_EQ(off.blocks_skipped, 0u);
      ASSERT_EQ(on.iteration_blocks.size(), off.iteration_blocks.size());
      for (std::size_t it = 0; it < on.iteration_blocks.size(); ++it) {
        const auto& lhs = on.iteration_blocks[it];
        const auto& rhs = off.iteration_blocks[it];
        ASSERT_EQ(lhs.size(), rhs.size()) << "iteration " << it;
        for (std::size_t i = 0; i < lhs.size(); ++i) {
          EXPECT_EQ(lhs[i].block, rhs[i].block);
          EXPECT_EQ(lhs[i].edges, rhs[i].edges);
        }
      }
      pc.expect_eq(*with, *without);
    }
  }
}

TEST(SoaKernels, PatternReuseIsReportAndTraceInvisible) {
  // End to end under a frontier config: functional outcomes built with
  // pattern reuse on and off must replay into byte-identical validated
  // report JSON and Chrome traces, as run_cached would emit them.
  HyveConfig config = HyveConfig::hyve_opt();
  config.frontier_block_skipping = true;
  const HyveMachine machine(config);
  std::uint64_t blocks_replayed = 0;
  for (const DatasetId id : {DatasetId::kYT, DatasetId::kWK}) {
    const std::shared_ptr<const Graph> graph =
        dataset_graph(id).hashed_remap_shared(config.hash_balance_seed);
    for (const Algorithm algo : {Algorithm::kBfs, Algorithm::kCc,
                                 Algorithm::kSssp, Algorithm::kPageRank}) {
      SCOPED_TRACE(::testing::Message()
                   << dataset_name(id) << "/" << algorithm_name(algo));
      const std::uint32_t p = machine.choose_num_intervals(
          *graph, make_program(algo)->vertex_value_bytes());
      const Partitioning schedule(*graph, p);
      const auto replay = [&](bool reuse, std::string* trace_bytes) {
        FunctionalOutcome outcome;
        outcome.num_intervals = p;
        const auto functional_program = make_program(algo);
        outcome.frontier =
            run_frontier(*graph, *functional_program, schedule,
                         FrontierOptions{.pattern_reuse = reuse});
        outcome.result = outcome.frontier->result;
        if (reuse) blocks_replayed += outcome.frontier->blocks_skipped;
        obs::Trace trace;
        const auto program = make_program(algo);
        const RunReport report = machine.run_with_functional(
            *graph, schedule, *program, outcome, &trace, 1);
        std::ostringstream os;
        trace.write(os);
        *trace_bytes = os.str();
        return validated_report_json(report);
      };
      std::string trace_on;
      std::string trace_off;
      const std::string on = replay(true, &trace_on);
      const std::string off = replay(false, &trace_off);
      EXPECT_EQ(on, off);
      EXPECT_FALSE(trace_on.empty());
      EXPECT_EQ(trace_on, trace_off);
    }
  }
  // Reuse really replayed blocks somewhere, so the equalities above
  // compared two different host paths.
  EXPECT_GT(blocks_replayed, 0u);
}

TEST(PartitionLazyMemo, ConcurrentBuildersShareOneImage) {
  const Graph g = generate_rmat(4000, 24000, {}, 0xACE5);
  const Partitioning part(g, 16);
  const Partitioning copy = part;  // shares the columns and lazy images
  // Sweep workers race into the same cached partitioning; every caller
  // must observe one column image, one published weight column and
  // one index.
  std::vector<const EdgeColumns*> columns(8, nullptr);
  std::vector<const std::uint64_t*> hashes(8, nullptr);
  std::vector<const SourceBlockIndex*> indexes(8, nullptr);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        const Partitioning& mine = (t % 2 == 0) ? part : copy;
        columns[t] = &mine.edge_columns();
        mine.edge_columns().ensure_weight_hashes();
        hashes[t] = mine.edge_columns().all().weight_hash;
        indexes[t] = &mine.source_block_index();
        // Re-reads hit the published fast path.
        EXPECT_EQ(columns[t], &mine.edge_columns());
        EXPECT_EQ(hashes[t], mine.edge_columns().all().weight_hashes());
        EXPECT_EQ(indexes[t], &mine.source_block_index());
      });
    }
    for (std::thread& th : threads) th.join();
  }
  ASSERT_NE(hashes[0], nullptr);
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(columns[t], columns[0]);
    EXPECT_EQ(hashes[t], hashes[0]);
    EXPECT_EQ(indexes[t], indexes[0]);
  }
  EXPECT_EQ(columns[0]->size(), g.num_edges());
  // One weight column, counted once.
  EXPECT_EQ(part.lazy_bytes(),
            columns[0]->approx_bytes() + indexes[0]->approx_bytes());
  EXPECT_EQ(copy.lazy_bytes(), part.lazy_bytes());
  EXPECT_GE(columns[0]->approx_bytes(),
            (2 * sizeof(VertexId) + sizeof(std::uint64_t)) * g.num_edges());
}

#ifndef NDEBUG
TEST(SoaKernels, ChangedCoverAssertThrowsInDebugBuilds) {
  const Graph g(4, {{0, 3}});
  const Partitioning part(g, 1);
  BfsProgram program;
  program.init(g);
  std::vector<char> too_small(1, 0);  // cannot index destination 3
  EXPECT_THROW(program.process_block_soa(part.block_soa(0, 0), &too_small),
               InvariantError);
}
#endif

}  // namespace
}  // namespace hyve
