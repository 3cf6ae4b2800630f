// Output checks of the benchmark program. Every operation a workload
// attempts (a grid cell, a bigsim algorithm run, an evolve burst or
// analysis) goes through one Checker, which counts it as failed when any
// check on its output does not hold. checks_test.cpp feeds each check a
// tampered input to show that it can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/cc.hpp"
#include "algos/pagerank.hpp"
#include "core/machine.hpp"

namespace perfbench {

class Checker {
 public:
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // First few failure reasons, for stderr.
  const std::vector<std::string>& errors() const { return errors_; }

  // One operation: counted as attempted, and as failed when `ok` is
  // false (with `why` kept for the log).
  bool record(bool ok, const std::string& why);
  // A failure that is not an operation of its own (e.g. a dirty
  // reference-kernel sample, or an exception that ended a round).
  void fail(const std::string& why);

  // The report's validated JSON (validate_phase_totals, validate_ledger
  // and the JSON round trip, as validated_report_json proves them), or
  // "" when any of them throws. Does not count an operation.
  static std::string validated_json(const hyve::RunReport& report,
                                    std::string* error = nullptr);

  // Checks a report record of slot `slot` (cell / run index within a
  // round): it must validate, and its bytes must equal the bytes the
  // same slot produced in the first round. Counts one operation.
  bool report(std::size_t slot, const hyve::RunReport& report,
              const std::string& what);
  // As report(), for a record already serialised (the grid's sink text):
  // it must parse back into a report whose phase totals and ledger
  // validate.
  bool record_bytes(std::size_t slot, const std::string& json,
                    const std::string& what);

  // Digest of the first round's records, in slot order.
  std::string first_round_digest() const;

  // evolve: IncrementalCc's count must equal the batch count, and the
  // store's edge count must equal the set-up count plus accepted adds
  // minus accepted deletes. Each is folded into the operation it
  // belongs to by the caller through record(); these return the verdict.
  static bool components_agree(std::uint64_t incremental,
                               std::uint64_t batch);
  static bool edges_agree(std::uint64_t store_edges, std::uint64_t initial,
                          std::uint64_t accepted_adds,
                          std::uint64_t accepted_deletes);

 private:
  bool same_as_first_round(std::size_t slot, const std::string& json);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> first_round_;  // slot -> bytes
  std::vector<bool> have_first_;
};

// bigsim's references, computed by the benchmark's own code (not the
// program's kernels) once in set-up on the graph image the machine runs.
struct BigsimReference {
  hyve::VertexId bfs_root = 0;
  std::vector<std::uint32_t> bfs_dist;  // BfsProgram::kUnreached if none
  std::vector<hyve::VertexId> cc_label;  // forward min-label closure
  std::vector<double> pr_rank;           // 10-iteration Jacobi PageRank

  static BigsimReference compute(const hyve::Graph& graph);
};

// Compares a finished program's state with the reference; "" when it
// agrees, else the reason.
std::string check_bfs(const BigsimReference& ref, const hyve::BfsProgram& p);
std::string check_cc(const BigsimReference& ref, const hyve::CcProgram& p);
std::string check_pr(const BigsimReference& ref,
                     const hyve::PageRankProgram& p);

// Number of vertices labelled with their own id (CC roots).
std::uint64_t count_components(const std::vector<hyve::VertexId>& labels);

}  // namespace perfbench
