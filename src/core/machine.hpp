// HyveMachine: the simulated graph-processing accelerator (paper §3-§4).
//
// A run has two halves:
//   * functional — the vertex program executes for real over the
//     interval-block schedule (src/algos), yielding correct algorithm
//     output and the iteration count;
//   * architectural — Algorithm 2's phases (loading, assigning,
//     rerouting, processing, synchronising, updating) are walked block by
//     block to integrate time (Eq. 1 pipeline bound, per-step synchronis-
//     ation across the N processing units) and energy (traffic counts x
//     the technology models of src/memmodel, plus background power over
//     the busy windows, with bank-level power gating where enabled).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algos/frontier.hpp"
#include "algos/runner.hpp"
#include "core/config.hpp"
#include "graph/graph.hpp"
#include "graph/partitioner.hpp"
#include "memmodel/dram.hpp"
#include "memmodel/reram.hpp"
#include "memmodel/sram.hpp"
#include "sim/energy.hpp"
#include "sim/power_gating.hpp"

namespace hyve {

namespace obs {
class Trace;
}  // namespace obs

struct RunReport {
  std::string config_label;
  std::string algorithm;
  std::uint32_t num_intervals = 0;  // P
  std::uint32_t iterations = 0;
  std::uint64_t edges_traversed = 0;
  // Strategy the schedule was built with (PartitionerSpec::to_string
  // form) and the schedule-quality metrics the paper ties to it:
  // Table 1 N_avg, replication, balance, Fig. 14 sharing, Fig. 15 wake.
  std::string partitioner = "interval";
  PartitionStats partition;
  double exec_time_ns = 0;
  double streaming_time_ns = 0;  // edge memory actively streaming
  AccessStats stats;
  EnergyBreakdown energy;
  // Per-phase attribution of exec_time_ns and the energy total (see
  // Phase in sim/energy.hpp). Its sums equal the run totals; report
  // validation enforces this at 1e-9 relative tolerance so breakdowns
  // can never silently drift from the totals.
  PhaseBreakdown phases;
  // The full energy-attribution ledger: every joule the simulator
  // charged, tagged (component × phase × PU-or-bank). The machine
  // derives `energy` and `phases.energy` from these cells, so the
  // marginals agree by construction; validate_ledger() re-proves it
  // before any serialisation. Empty on hand-built reports.
  EnergyLedger ledger;
  PowerGatingResult bpg;  // zeros when power gating is off/ inapplicable

  // Throws InvariantError unless phases sums to exec_time_ns and
  // total_energy_pj() within `rel_tol` relative tolerance.
  void validate_phase_totals(double rel_tol = 1e-9) const;
  // Throws InvariantError unless the ledger's per-component marginals
  // equal `energy`, its per-phase marginals equal `phases.energy`, and
  // its grand total equals total_energy_pj(), all within `rel_tol`
  // relative tolerance. A report with no ledger cells passes (reports
  // assembled by hand carry no attribution).
  void validate_ledger(double rel_tol = 1e-9) const;

  double total_energy_pj() const { return energy.total_pj(); }
  // Million traversed edges per second.
  double mteps() const;
  // The paper's headline metric (Figs. 13, 16, Table 4).
  double mteps_per_watt() const;
  double edp_pj_ns() const { return total_energy_pj() * exec_time_ns; }
};

// The outcome of the functional half of a run: the algorithm's
// iteration/traversal counts plus, when frontier block skipping is on,
// the per-iteration block trace the accounting walk replays. It depends
// only on (graph image, program, P, frontier mode) — not on the memory
// technologies — so sweeps over memory configs can compute it once and
// replay it per cell (see exp::FunctionalCache).
struct FunctionalOutcome {
  FunctionalResult result;
  std::optional<FrontierTrace> frontier;  // set iff frontier mode was on
  std::uint32_t num_intervals = 0;        // P the schedule was built with
};

class HyveMachine {
 public:
  explicit HyveMachine(HyveConfig config);

  const HyveConfig& config() const { return config_; }

  // Number of vertex intervals P for a graph/algorithm combination: the
  // smallest multiple of N whose intervals fit a per-PU SRAM section.
  std::uint32_t choose_num_intervals(const Graph& graph,
                                     std::uint32_t vertex_value_bytes) const;

  // Simulates the full run of `algorithm` on `graph`. When `trace` is
  // non-null the architectural walk additionally emits Chrome trace
  // events (per-PU block spans, interval transfers, router sharing,
  // power-gating windows) on tracks of process `trace_pid`, with
  // timestamps in simulated nanoseconds.
  RunReport run(const Graph& graph, Algorithm algorithm,
                obs::Trace* trace = nullptr,
                std::uint32_t trace_pid = 1) const;

  // As above with a caller-supplied program (custom algorithms).
  RunReport run(const Graph& graph, VertexProgram& program,
                obs::Trace* trace = nullptr,
                std::uint32_t trace_pid = 1) const;

  // The two halves of run(), split so callers can memoize the functional
  // phase across runs whose memory configuration differs but whose
  // functional inputs agree (exp::run_cached does). Both take a graph
  // whose layout preparation was done by the caller: `graph` must
  // already reflect config().hash_balance (i.e. be the hashed_remap
  // image when that option is on) and `schedule` must partition `graph`
  // into choose_num_intervals() intervals; both are checked.
  //
  // run_functional_phase executes the vertex program for real (dense or
  // frontier-skipping per config().frontier_block_skipping) and returns
  // everything accounting needs. run_with_functional replays a
  // previously computed outcome through the architectural walk; the
  // outcome must have been produced by a machine with the same frontier
  // mode and P (checked). Composing the two is byte-identical to run().
  FunctionalOutcome run_functional_phase(const Graph& graph,
                                         const Partitioning& schedule,
                                         VertexProgram& program) const;
  RunReport run_with_functional(const Graph& graph,
                                const Partitioning& schedule,
                                VertexProgram& program,
                                const FunctionalOutcome& functional,
                                obs::Trace* trace = nullptr,
                                std::uint32_t trace_pid = 1) const;

 private:
  struct TraceSink;  // trace + pid + track layout (null trace = no-op)

  // Per-PU operation tallies gathered by the architectural walk, so the
  // energy ledger can attribute PU-local energies (pipeline ops, SRAM
  // accesses, router hops) to the unit that incurred them. Empty for the
  // SRAM-less baselines, whose walk has no per-PU structure.
  struct UnitTallies {
    std::vector<std::uint64_t> pu_edges;   // edges processed per PU
    std::vector<std::uint64_t> pu_remote;  // router hops per PU
    std::vector<std::uint64_t> pu_apply;   // apply-step ops per PU
  };

  const MemoryModel& edge_memory() const;
  const MemoryModel& offchip_vertex_memory() const;

  RunReport account(const Graph& graph, VertexProgram& program,
                    const Partitioning& schedule,
                    const FunctionalResult& functional,
                    const FrontierTrace* frontier,
                    const TraceSink& sink) const;
  void account_with_sram(const Graph& graph, const Partitioning& schedule,
                         std::uint32_t value_bytes, bool has_apply,
                         const FrontierTrace* frontier, const TraceSink& sink,
                         RunReport& report, UnitTallies& tallies) const;
  void account_without_sram(const Graph& graph, std::uint32_t value_bytes,
                            RunReport& report) const;

  HyveConfig config_;
  ReramModel reram_;
  DramModel dram_;
  std::optional<SramModel> sram_;
};

}  // namespace hyve
