// cli::ArgParser — the command-line layer shared by the hyve_* tools and
// every bench binary. The death tests pin the exit-status-2 contract:
// a malformed command line (missing value, unknown option, garbage
// integer) must print the usage message and exit 2, and in particular an
// --option given as the last argv token must never read past argv.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace hyve {
namespace {

class CliDeathTest : public ::testing::Test {
 protected:
  CliDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

int parse_with(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  cli::ArgParser parser("prog", "test parser");
  int jobs = -1;
  parser.option("--jobs", "N", "worker threads",
                [&](const std::string& v) {
                  jobs = static_cast<int>(
                      cli::parse_int(parser, "--jobs", v, 0, 4096));
                });
  bool smoke = false;
  parser.flag("--smoke", "deterministic mode", &smoke);
  parser.parse(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
  return jobs;
}

TEST(Cli, ParsesOptionValueAndFlag) {
  EXPECT_EQ(parse_with({"--jobs", "3"}), 3);
  EXPECT_EQ(parse_with({"--jobs", "0"}), 0);
  EXPECT_EQ(parse_with({}), -1);  // option not given, handler untouched
}

TEST_F(CliDeathTest, OptionAsLastTokenFailsWithUsage) {
  EXPECT_EXIT(parse_with({"--jobs"}), ::testing::ExitedWithCode(2),
              "--jobs needs a value");
  EXPECT_EXIT(parse_with({"--smoke", "--jobs"}),
              ::testing::ExitedWithCode(2), "--jobs needs a value");
}

TEST_F(CliDeathTest, UnknownOptionFails) {
  EXPECT_EXIT(parse_with({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown option --bogus");
}

TEST_F(CliDeathTest, UnexpectedPositionalFails) {
  EXPECT_EXIT(parse_with({"stray"}), ::testing::ExitedWithCode(2),
              "unexpected argument stray");
}

TEST_F(CliDeathTest, GarbageIntegerFails) {
  EXPECT_EXIT(parse_with({"--jobs", "abc"}), ::testing::ExitedWithCode(2),
              "--jobs expects an integer");
  EXPECT_EXIT(parse_with({"--jobs", "3x"}), ::testing::ExitedWithCode(2),
              "--jobs expects an integer");
  EXPECT_EXIT(parse_with({"--jobs", ""}), ::testing::ExitedWithCode(2),
              "--jobs expects an integer");
}

TEST_F(CliDeathTest, OutOfRangeIntegerFails) {
  EXPECT_EXIT(parse_with({"--jobs", "-1"}), ::testing::ExitedWithCode(2),
              "--jobs expects a value in");
  EXPECT_EXIT(parse_with({"--jobs", "5000"}), ::testing::ExitedWithCode(2),
              "--jobs expects a value in");
}

TEST(Cli, PositionalsAcceptedWhenAllowed) {
  cli::ArgParser parser("prog", "test parser");
  parser.allow_positionals(2);
  std::vector<const char*> args{"prog", "one", "two"};
  parser.parse(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
  ASSERT_EQ(parser.positionals().size(), 2u);
  EXPECT_EQ(parser.positionals()[0], "one");
  EXPECT_EQ(parser.positionals()[1], "two");
}

TEST(Cli, SplitCsv) {
  EXPECT_EQ(cli::split_csv("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(cli::split_csv("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(cli::split_csv("").empty());
}

TEST(Cli, ParseIntAcceptsFullRange) {
  cli::ArgParser parser("prog", "test parser");
  EXPECT_EQ(cli::parse_int(parser, "--n", "42", 0), 42);
  EXPECT_EQ(cli::parse_int(parser, "--n", "-7", -10, 10), -7);
  EXPECT_EQ(cli::parse_int(parser, "--n", "4096", 0, 4096), 4096);
}

#if defined(HYVE_SIM_BIN) && defined(HYVE_EXPERIMENTS_BIN)
int run_tool(const std::string& bin, const std::string& args) {
  const std::string cmd = bin + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// The pattern-reuse switch and the functional-cache opt-in are gone
// (reuse and memoisation are always on; results never depended on
// either): each is now an unknown option.
TEST(Cli, RemovedToolFlagsAreUnknownOptions) {
  EXPECT_EQ(run_tool(HYVE_SIM_BIN, "--no-pattern-reuse"), 2);
  EXPECT_EQ(run_tool(HYVE_EXPERIMENTS_BIN, "--no-pattern-reuse"), 2);
  EXPECT_EQ(run_tool(HYVE_EXPERIMENTS_BIN, "--functional-cache"), 2);
}

// hyve_sim takes exactly one graph source.
TEST(Cli, SimNeedsExactlyOneGraphSource) {
  EXPECT_EQ(run_tool(HYVE_SIM_BIN, "--algo bfs"), 2);
  EXPECT_EQ(run_tool(HYVE_SIM_BIN, "--dataset YT --rmat 100x400"), 2);
  EXPECT_EQ(run_tool(HYVE_SIM_BIN, "--rmat 100x400 --graph g.txt"), 2);
  EXPECT_EQ(run_tool(HYVE_SIM_BIN, "--rmat 100x400 --algo bfs"), 0);
}

// A tool's stderr (stdout discarded).
std::string tool_stderr(const std::string& bin, const std::string& args) {
  const std::string cmd = bin + " " + args + " 2>&1 >/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    out.append(buf, n);
  ::pclose(pipe);
  return out;
}

// --host-profile without --metrics prints its host.* summary by itself.
// hyve_sim's profile covers graph generation, and a five-config grid
// runs its vertex program once per algorithm and graph.
TEST(Cli, HostProfileAlonePrintsItsSummary) {
  const std::string sim =
      tool_stderr(HYVE_SIM_BIN, "--rmat 2000x8000 --host-profile");
  EXPECT_NE(sim.find("host.wall_us="), std::string::npos) << sim;
  EXPECT_NE(sim.find("\nhost.span.rmat.generate.count=1\n"),
            std::string::npos)
      << sim;
  EXPECT_EQ(sim.find("sim."), std::string::npos) << sim;

  const std::string grid = tool_stderr(
      HYVE_EXPERIMENTS_BIN, "--datasets YT --algos bfs,pr --host-profile");
  EXPECT_NE(grid.find("\nhost.span.machine.functional.count=2\n"),
            std::string::npos)
      << grid;
  EXPECT_NE(grid.find("\nhost.span.machine.run.count=10\n"),
            std::string::npos)
      << grid;
}
#endif

}  // namespace
}  // namespace hyve
