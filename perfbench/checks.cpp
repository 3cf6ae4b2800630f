#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>

#include "core/report_io.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMaxErrors = 8;

// CSR by source, built by the benchmark itself.
struct Adjacency {
  std::vector<std::uint64_t> offsets;
  std::vector<hyve::VertexId> targets;

  explicit Adjacency(const hyve::Graph& g)
      : offsets(g.num_vertices() + 1, 0), targets(g.num_edges()) {
    for (const hyve::Edge& e : g.edges()) ++offsets[e.src + 1];
    for (std::size_t v = 0; v < g.num_vertices(); ++v)
      offsets[v + 1] += offsets[v];
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const hyve::Edge& e : g.edges()) targets[cursor[e.src]++] = e.dst;
  }
};

}  // namespace

bool Checker::record(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) fail(why);
  return ok;
}

void Checker::fail(const std::string& why) {
  ++failed_;
  if (errors_.size() < kMaxErrors) errors_.push_back(why);
}

std::string Checker::validated_json(const hyve::RunReport& report,
                                    std::string* error) {
  try {
    return hyve::validated_report_json(report);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return {};
  }
}

bool Checker::same_as_first_round(std::size_t slot, const std::string& json) {
  if (slot >= first_round_.size()) {
    first_round_.resize(slot + 1);
    have_first_.resize(slot + 1, false);
  }
  if (!have_first_[slot]) {
    first_round_[slot] = json;
    have_first_[slot] = true;
    return true;
  }
  return first_round_[slot] == json;
}

bool Checker::report(std::size_t slot, const hyve::RunReport& report,
                     const std::string& what) {
  std::string error;
  const std::string json = validated_json(report, &error);
  if (json.empty()) return record(false, what + ": " + error);
  return record(same_as_first_round(slot, json),
                what + ": report bytes differ from the first round's");
}

bool Checker::record_bytes(std::size_t slot, const std::string& json,
                           const std::string& what) {
  try {
    const hyve::RunReport parsed = hyve::run_report_from_json(json);
    parsed.validate_phase_totals();
    parsed.validate_ledger();
  } catch (const std::exception& e) {
    return record(false, what + ": " + e.what());
  }
  return record(same_as_first_round(slot, json),
                what + ": record bytes differ from the first round's");
}

std::string Checker::first_round_digest() const {
  Digest d;
  for (const std::string& s : first_round_) d.add(s);
  return d.hex();
}

bool Checker::components_agree(std::uint64_t incremental,
                               std::uint64_t batch) {
  return incremental == batch;
}

bool Checker::edges_agree(std::uint64_t store_edges, std::uint64_t initial,
                          std::uint64_t accepted_adds,
                          std::uint64_t accepted_deletes) {
  return store_edges + accepted_deletes == initial + accepted_adds;
}

BigsimReference BigsimReference::compute(const hyve::Graph& graph) {
  BigsimReference ref;
  const hyve::VertexId n = graph.num_vertices();
  const Adjacency adj(graph);
  std::vector<hyve::VertexId> queue;
  queue.reserve(n);

  // BFS from the highest-out-degree vertex (lowest id on ties), the root
  // BfsProgram picks by default.
  std::uint64_t best = 0;
  for (hyve::VertexId v = 0; v < n; ++v) {
    const std::uint64_t deg = adj.offsets[v + 1] - adj.offsets[v];
    if (deg > best) best = deg, ref.bfs_root = v;
  }
  ref.bfs_dist.assign(n, hyve::BfsProgram::kUnreached);
  ref.bfs_dist[ref.bfs_root] = 0;
  queue.push_back(ref.bfs_root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const hyve::VertexId u = queue[head];
    for (std::uint64_t i = adj.offsets[u]; i < adj.offsets[u + 1]; ++i) {
      const hyve::VertexId w = adj.targets[i];
      if (ref.bfs_dist[w] == hyve::BfsProgram::kUnreached) {
        ref.bfs_dist[w] = ref.bfs_dist[u] + 1;
        queue.push_back(w);
      }
    }
  }

  // Forward min-label closure: label[v] = min{u : u reaches v or u = v}.
  // Sweeping roots in increasing id and never re-entering labelled
  // vertices is exact: anything reachable through a labelled vertex is
  // reachable from that vertex's smaller label too.
  constexpr hyve::VertexId kUnset = static_cast<hyve::VertexId>(-1);
  ref.cc_label.assign(n, kUnset);
  for (hyve::VertexId root = 0; root < n; ++root) {
    if (ref.cc_label[root] != kUnset) continue;
    ref.cc_label[root] = root;
    queue.assign(1, root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const hyve::VertexId u = queue[head];
      for (std::uint64_t i = adj.offsets[u]; i < adj.offsets[u + 1]; ++i) {
        const hyve::VertexId w = adj.targets[i];
        if (ref.cc_label[w] == kUnset) {
          ref.cc_label[w] = root;
          queue.push_back(w);
        }
      }
    }
  }

  // Synchronous PageRank, 10 iterations, damping 0.85, in doubles.
  const double d = 0.85;
  const double base = (1.0 - d) / n;
  ref.pr_rank.assign(n, 1.0 / n);
  std::vector<double> accum(n);
  for (int it = 0; it < 10; ++it) {
    std::fill(accum.begin(), accum.end(), 0.0);
    for (hyve::VertexId u = 0; u < n; ++u) {
      const std::uint64_t deg = adj.offsets[u + 1] - adj.offsets[u];
      if (deg == 0) continue;
      const double share = ref.pr_rank[u] / static_cast<double>(deg);
      for (std::uint64_t i = adj.offsets[u]; i < adj.offsets[u + 1]; ++i)
        accum[adj.targets[i]] += share;
    }
    for (hyve::VertexId v = 0; v < n; ++v) ref.pr_rank[v] = base + d * accum[v];
  }
  return ref;
}

std::string check_bfs(const BigsimReference& ref, const hyve::BfsProgram& p) {
  if (p.root() != ref.bfs_root) return "BFS root differs from the reference";
  if (p.distances() != ref.bfs_dist)
    return "BFS distances differ from the reference";
  return {};
}

std::string check_cc(const BigsimReference& ref, const hyve::CcProgram& p) {
  if (p.labels() != ref.cc_label) return "CC labels differ from the reference";
  return {};
}

std::string check_pr(const BigsimReference& ref,
                     const hyve::PageRankProgram& p) {
  const std::vector<double>& ranks = p.ranks();
  if (ranks.size() != ref.pr_rank.size()) return "PR rank vector size differs";
  // The program freezes per-source contributions as float, so agreement
  // is to float precision, not bit-exact.
  double diff = 0;
  double norm = 0;
  for (std::size_t v = 0; v < ranks.size(); ++v) {
    if (!std::isfinite(ranks[v])) return "PR rank is not finite";
    diff += std::abs(ranks[v] - ref.pr_rank[v]);
    norm += std::abs(ref.pr_rank[v]);
  }
  if (diff > 1e-5 * norm) {
    std::ostringstream os;
    os << "PR ranks differ from the reference (L1 " << diff / norm << ")";
    return os.str();
  }
  return {};
}

std::uint64_t count_components(const std::vector<hyve::VertexId>& labels) {
  std::uint64_t roots = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) roots += labels[v] == v;
  return roots;
}

}  // namespace perfbench
