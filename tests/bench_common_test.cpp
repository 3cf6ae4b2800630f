// bench::Runner layer (bench/common.hpp): the geomean guard, the shared
// command line every bench binary accepts, order-stable parallel cell
// execution, and the GridResults indexing used to render paper tables
// from SweepEngine output. Runs under TSan via the sweep-engine label.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/report_io.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace hyve {
namespace {

TEST(Geomean, EmptyIsExplicitZero) {
  EXPECT_EQ(bench::geomean({}), 0.0);
}

TEST(Geomean, SingleAndMultiElement) {
  EXPECT_DOUBLE_EQ(bench::geomean({3.5}), 3.5);
  EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}), 4.0);
  EXPECT_NEAR(bench::geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

// The headline bugfix: a zero or negative ratio used to silently produce
// NaN/-inf via std::log and poison every "measured average" line.
TEST(Geomean, RejectsZeroAndNegativeRatios) {
  EXPECT_THROW(bench::geomean({1.0, 0.0, 2.0}), InvariantError);
  EXPECT_THROW(bench::geomean({-1.5}), InvariantError);
  EXPECT_THROW(bench::geomean({2.0, -0.25}), InvariantError);
}

TEST(RunCells, ReturnsResultsInIndexOrderForAnyJobCount) {
  bench::Options opts;
  std::vector<std::size_t> serial, parallel;
  opts.jobs = 1;
  serial = bench::run_cells(64, opts, [](std::size_t i) { return i * i; });
  opts.jobs = 8;
  parallel = bench::run_cells(64, opts, [](std::size_t i) { return i * i; });
  ASSERT_EQ(serial.size(), 64u);
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], i * i);
}

TEST(RunCells, PropagatesTheFirstCellFailure) {
  bench::Options opts;
  opts.jobs = 4;
  EXPECT_THROW(bench::run_cells(16, opts,
                                [](std::size_t i) -> int {
                                  if (i == 5)
                                    throw std::runtime_error("cell 5 broke");
                                  return 0;
                                }),
               std::runtime_error);
}

TEST(RunCells, ZeroJobsMeansHardwareConcurrency) {
  bench::Options opts;
  opts.jobs = 0;
  const auto out =
      bench::run_cells(8, opts, [](std::size_t i) { return i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

// run_grid renders from the same engine results hyve_experiments emits;
// the (config, algorithm, graph) indexing must address the row-major
// SweepResult order exactly.
TEST(GridResults, IndexesEngineResultsByAxis) {
  const std::string key = "bench_common_test_g1";
  if (!bench::graph_cache().contains(key))
    bench::graph_cache().add(key,
                             [] { return generate_rmat(4000, 20000, {}, 5); });

  bench::Options opts;
  opts.jobs = 2;
  exp::SweepSpec spec;
  spec.configs = {HyveConfig::hyve_opt(), HyveConfig::sram_dram()};
  spec.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  spec.graphs = {key};
  const bench::GridResults grid = bench::run_grid(spec, opts);

  for (std::size_t c = 0; c < spec.configs.size(); ++c) {
    for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
      const RunReport& r = grid.at(c, a, 0);
      EXPECT_EQ(r.config_label, spec.configs[c].label);
      EXPECT_EQ(r.algorithm, algorithm_name(spec.algorithms[a]));
      const RunReport direct =
          HyveMachine(spec.configs[c])
              .run(bench::graph_cache().base(key), spec.algorithms[a]);
      EXPECT_EQ(report_to_json(r), report_to_json(direct));
    }
  }
  EXPECT_THROW(grid.at(2, 0, 0), InvariantError);
  EXPECT_THROW(grid.at(0, 2, 0), InvariantError);
  EXPECT_THROW(grid.at(0, 0, 1), InvariantError);
}

class BenchArgsDeathTest : public ::testing::Test {
 protected:
  BenchArgsDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

bench::Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return bench::parse_args(static_cast<int>(args.size()),
                           const_cast<char**>(args.data()), "bench_test",
                           "test bench");
}

TEST(BenchArgs, DefaultsAndSharedFlags) {
  const bench::Options defaults = parse({});
  EXPECT_EQ(defaults.jobs, 1);
  EXPECT_FALSE(defaults.smoke);
  EXPECT_EQ(defaults.datasets.size(), std::size(kAllDatasets));

  const bench::Options opts =
      parse({"--jobs", "3", "--smoke", "--datasets", "yt,WK"});
  EXPECT_EQ(opts.jobs, 3);
  EXPECT_TRUE(opts.smoke);
  ASSERT_EQ(opts.datasets.size(), 2u);
  EXPECT_EQ(opts.datasets[0], DatasetId::kYT);
  EXPECT_EQ(opts.datasets[1], DatasetId::kWK);
}

TEST_F(BenchArgsDeathTest, SharedCommandLineRejectsBadInput) {
  EXPECT_EXIT(parse({"--jobs", "abc"}), ::testing::ExitedWithCode(2),
              "--jobs expects an integer");
  EXPECT_EXIT(parse({"--jobs"}), ::testing::ExitedWithCode(2),
              "--jobs needs a value");
  EXPECT_EXIT(parse({"--no-such-flag"}), ::testing::ExitedWithCode(2),
              "unknown option --no-such-flag");
  EXPECT_EXIT(parse({"--datasets", "XX"}), ::testing::ExitedWithCode(2),
              "unknown dataset XX");
}

// The caches are build-once with no size knobs, functional memoisation
// is always on, and pattern reuse has no switch: each removed flag is
// now an unknown option.
TEST_F(BenchArgsDeathTest, RemovedCacheAndReuseFlagsAreUnknownOptions) {
  for (const char* flag : {"--graph-cache-mb", "--ooc-window-mb",
                           "--partition-cache", "--functional-cache-mb"})
    EXPECT_EXIT(parse({flag, "8"}), ::testing::ExitedWithCode(2),
                std::string("unknown option ") + flag);
  for (const char* flag : {"--no-pattern-reuse", "--functional-cache"})
    EXPECT_EXIT(parse({flag}), ::testing::ExitedWithCode(2),
                std::string("unknown option ") + flag);
}

}  // namespace
}  // namespace hyve
