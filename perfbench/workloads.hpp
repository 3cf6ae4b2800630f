// The three benchmark workloads (perfbench/README.md gives why each
// exists). A workload sets up once, then runs identical rounds of fixed
// work; main.cpp times the rounds, checks them and reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "core/machine.hpp"

namespace perfbench {

// Per-round counts a traced round gathers at the layer boundaries, next
// to the span times (names as in BENCHMARK.json's per_layer list).
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  // Worker threads the program uses in a round.
  virtual int jobs() const = 0;
  // Reference-kernel size, like the workload's graphs.
  virtual RefKernel::Shape ref_shape() const = 0;

  // Everything before the first round; timed as setup_s.
  virtual void setup() = 0;
  // Untimed preparation after set-up (references, pristine copies).
  virtual void prepare() {}
  // Untimed work before every round (e.g. restoring the set-up state).
  virtual void before_round() {}
  // One round of the workload's fixed work. `traced` replays the same
  // work through each layer's public functions inside spans and fills
  // `counts`; untraced it runs the program's own entry point.
  virtual void round(bool traced, Counts& counts) = 0;
  // Untimed: checks the round just run, one operation per cell / run /
  // burst / analysis.
  virtual void check_round(Checker& checker) = 0;

  // The reports of the last round (for the sim.* sums and the MTEPS/W
  // geomean).
  virtual const std::vector<hyve::RunReport>& reports() const = 0;
};

// The named workload (grid, bigsim, evolve); null for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
