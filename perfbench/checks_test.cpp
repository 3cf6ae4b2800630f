// Self-test of the benchmark's output checks: each check is fed a good
// input, which must pass, and a tampered one, which must be counted as
// a failed operation — proof that the checks can fail.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/pagerank.hpp"
#include "checks.hpp"
#include "core/machine.hpp"
#include "core/report_io.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

hyve::RunReport small_report(hyve::Algorithm algorithm) {
  static const hyve::Graph graph = hyve::generate_rmat(2000, 16000, {}, 7);
  return hyve::HyveMachine(hyve::HyveConfig::hyve_opt()).run(graph, algorithm);
}

TEST(Checker, GoodRoundsPass) {
  Checker checker;
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(checker.report(0, small_report(hyve::Algorithm::kBfs), "bfs"));
    const std::string json =
        Checker::validated_json(small_report(hyve::Algorithm::kCc));
    EXPECT_TRUE(checker.record_bytes(1, json, "cc"));
  }
  EXPECT_EQ(checker.attempted(), 4u);
  EXPECT_EQ(checker.failed(), 0u);
}

TEST(Checker, TamperedLedgerCellFails) {
  Checker checker;
  hyve::RunReport report = small_report(hyve::Algorithm::kPageRank);
  ASSERT_FALSE(report.ledger.empty());
  const hyve::LedgerKey key = report.ledger.cells().begin()->first;
  report.ledger.charge(key.component, key.phase, key.unit, 1e6);
  EXPECT_FALSE(checker.report(0, report, "pr"));
  EXPECT_EQ(checker.failed(), 1u);
}

TEST(Checker, TamperedRecordBytesFail) {
  // The grid checks the sink's text: a record whose ledger no longer
  // sums to its totals must not parse back as a valid report.
  hyve::RunReport report = small_report(hyve::Algorithm::kBfs);
  const hyve::LedgerKey key = report.ledger.cells().begin()->first;
  report.ledger.charge(key.component, key.phase, key.unit, 1e6);
  Checker checker;
  EXPECT_FALSE(checker.record_bytes(0, hyve::report_to_json(report), "bfs"));
  EXPECT_EQ(checker.failed(), 1u);
}

TEST(Checker, RoundDigestDifferingFromFirstRoundFails) {
  Checker checker;
  const hyve::RunReport first = small_report(hyve::Algorithm::kCc);
  ASSERT_TRUE(checker.report(3, first, "cc"));
  const std::string digest = checker.first_round_digest();
  hyve::RunReport later = first;
  later.exec_time_ns *= 1.5;  // a consistent but different report
  later.phases.time_ns[0] += first.exec_time_ns * 0.5;
  ASSERT_FALSE(Checker::validated_json(later).empty());
  EXPECT_FALSE(checker.report(3, later, "cc"));
  EXPECT_EQ(checker.failed(), 1u);
  EXPECT_EQ(checker.first_round_digest(), digest);

  // The same on the text path the grid uses.
  Checker grid;
  ASSERT_TRUE(grid.record_bytes(0, Checker::validated_json(first), "cell"));
  EXPECT_FALSE(grid.record_bytes(0, Checker::validated_json(later), "cell"));
  EXPECT_EQ(grid.failed(), 1u);
}

TEST(Checker, WrongComponentCountFails) {
  EXPECT_TRUE(Checker::components_agree(17, 17));
  EXPECT_FALSE(Checker::components_agree(17, 18));
  EXPECT_TRUE(Checker::edges_agree(100, 90, 20, 10));
  EXPECT_FALSE(Checker::edges_agree(101, 90, 20, 10));

  // Batch count from CC labels on a graph with two components.
  hyve::Graph g(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  hyve::CcProgram cc;
  hyve::run_functional(g, cc);
  EXPECT_EQ(count_components(cc.labels()), 2u);
  Checker checker;
  checker.record(Checker::components_agree(3, count_components(cc.labels())),
                 "evolve CC");
  EXPECT_EQ(checker.failed(), 1u);
}

TEST(BigsimReference, AgreesWithProgramsAndCatchesTampering) {
  const hyve::Graph graph = hyve::generate_rmat(3000, 24000, {}, 11);
  const BigsimReference ref = BigsimReference::compute(graph);
  hyve::BfsProgram bfs;
  hyve::CcProgram cc;
  hyve::PageRankProgram pr;
  // Run on the graph as given (hash_balance off) so ids line up.
  hyve::HyveConfig plain = hyve::HyveConfig::hyve_opt();
  plain.hash_balance = false;
  const hyve::HyveMachine m(plain);
  m.run(graph, bfs);
  m.run(graph, cc);
  m.run(graph, pr);
  EXPECT_EQ(check_bfs(ref, bfs), "");
  EXPECT_EQ(check_cc(ref, cc), "");
  EXPECT_EQ(check_pr(ref, pr), "");

  BigsimReference wrong = ref;
  wrong.bfs_dist[wrong.bfs_root == 0 ? 1 : 0] += 1;
  wrong.cc_label.back() += 1;
  wrong.pr_rank[0] *= 2;
  EXPECT_NE(check_bfs(wrong, bfs), "");
  EXPECT_NE(check_cc(wrong, cc), "");
  EXPECT_NE(check_pr(wrong, pr), "");
}

TEST(RefKernel, CpuCheckFlagsForeignWork) {
  EXPECT_TRUE(cpu_within_kernel(1.0, 1.0));
  EXPECT_FALSE(cpu_within_kernel(1.5, 1.0));  // another thread ran
  RefKernel kernel({1000, 20000, 0.001});
  const RefKernel::Sample s = kernel.run();
  EXPECT_GT(s.wall_s, 0);
  EXPECT_TRUE(s.cpu_clean);
}

}  // namespace
}  // namespace perfbench
