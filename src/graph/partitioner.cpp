#include "graph/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hyve {

namespace {

constexpr std::uint32_t kUnassigned = ~std::uint32_t{0};

// Word-packed vertex marks (the HEP "is_high_degree" idiom): one bit per
// vertex, cheap to test in the streaming loops.
class DenseBitset {
 public:
  explicit DenseBitset(std::size_t bits) : words_((bits + 63) / 64, 0) {}
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

 private:
  std::vector<std::uint64_t> words_;
};

// ceil(V / P): the interval population every strategy must respect so
// choose_num_intervals()'s SRAM sizing stays valid.
VertexId interval_capacity(VertexId num_vertices, std::uint32_t p) {
  return (num_vertices + p - 1) / p;
}

void check_interval_count(const Graph& g, std::uint32_t p) {
  HYVE_CHECK(p >= 1);
  HYVE_CHECK_MSG(p <= g.num_vertices() || g.num_vertices() == 0,
                 "more intervals (" << p << ") than vertices ("
                                    << g.num_vertices() << ")");
}

// Undirected adjacency (out + in neighbours) in CSR form, for the
// affinity placement of low-degree vertices.
struct Adjacency {
  std::vector<std::uint64_t> offsets;  // V + 1
  std::vector<VertexId> neighbors;     // 2E
};

Adjacency build_adjacency(const Graph& g,
                          const std::vector<std::uint32_t>& degree) {
  Adjacency adj;
  const VertexId v = g.num_vertices();
  adj.offsets.assign(v + std::size_t{1}, 0);
  for (VertexId u = 0; u < v; ++u)
    adj.offsets[u + 1] = adj.offsets[u] + degree[u];
  adj.neighbors.resize(adj.offsets[v]);
  std::vector<std::uint64_t> cursor(adj.offsets.begin(),
                                    adj.offsets.end() - 1);
  for (const Edge& e : g.edges()) {
    adj.neighbors[cursor[e.src]++] = e.dst;
    adj.neighbors[cursor[e.dst]++] = e.src;
  }
  return adj;
}

class IntervalBlockPartitioner final : public Partitioner {
 public:
  explicit IntervalBlockPartitioner(PartitionerSpec spec) : spec_(spec) {}
  const PartitionerSpec& spec() const override { return spec_; }

  VertexMap map_vertices(const Graph& g, std::uint32_t p) const override {
    check_interval_count(g, p);
    return VertexMap::uniform(g.num_vertices(), p);
  }

 private:
  PartitionerSpec spec_;
};

class HepPartitioner final : public Partitioner {
 public:
  explicit HepPartitioner(PartitionerSpec spec) : spec_(spec) {}
  const PartitionerSpec& spec() const override { return spec_; }

  VertexMap map_vertices(const Graph& g, std::uint32_t p) const override {
    check_interval_count(g, p);
    const VertexId v = g.num_vertices();
    if (v == 0 || p == 1) return VertexMap::uniform(v, p);

    std::vector<std::uint32_t> degree(v, 0);
    for (const Edge& e : g.edges()) {
      ++degree[e.src];
      ++degree[e.dst];
    }
    const double avg_degree =
        2.0 * static_cast<double>(g.num_edges()) / static_cast<double>(v);
    const double threshold = spec_.hep_tau * avg_degree;

    DenseBitset is_high_degree(v);
    std::vector<VertexId> high;
    for (VertexId u = 0; u < v; ++u) {
      if (static_cast<double>(degree[u]) > threshold) {
        is_high_degree.set(u);
        high.push_back(u);
      }
    }

    const VertexId cap = interval_capacity(v, p);
    std::vector<std::uint32_t> assignment(v, kUnassigned);
    std::vector<std::uint64_t> load(p, 0);  // edge load (degree sum)
    std::vector<VertexId> population(p, 0);

    // Phase 1 — high-degree vertices, heaviest first, onto the least
    // edge-loaded interval with population headroom (LPT via min-heap).
    std::sort(high.begin(), high.end(), [&](VertexId a, VertexId b) {
      if (degree[a] != degree[b]) return degree[a] > degree[b];
      return a < b;
    });
    using HeapEntry = std::pair<std::uint64_t, std::uint32_t>;  // load, id
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        min_heap;
    for (std::uint32_t i = 0; i < p; ++i) min_heap.push({0, i});
    const auto place = [&](VertexId u, std::uint32_t interval) {
      assignment[u] = interval;
      load[interval] += degree[u];
      ++population[interval];
    };
    for (const VertexId u : high) {
      std::vector<HeapEntry> stash;
      std::uint32_t chosen = kUnassigned;
      while (!min_heap.empty()) {
        const HeapEntry top = min_heap.top();
        min_heap.pop();
        if (top.first != load[top.second]) continue;  // stale entry
        if (population[top.second] < cap) {
          chosen = top.second;
          break;
        }
        stash.push_back(top);
      }
      for (const HeapEntry& e : stash) min_heap.push(e);
      HYVE_CHECK_MSG(chosen != kUnassigned,
                     "hep: no interval below capacity " << cap);
      place(u, chosen);
      min_heap.push({load[chosen], chosen});
    }

    // Phase 2 — the low-degree remainder streams in id order onto the
    // interval holding most of its already-placed neighbours (ties:
    // smaller population, then lower index); vertices with no placed
    // neighbour fall back to the least-populated interval.
    const Adjacency adj = build_adjacency(g, degree);
    std::vector<std::uint32_t> affinity(p, 0);
    std::vector<std::uint32_t> touched;
    for (VertexId u = 0; u < v; ++u) {
      if (assignment[u] != kUnassigned) continue;
      touched.clear();
      for (std::uint64_t i = adj.offsets[u]; i < adj.offsets[u + 1]; ++i) {
        const std::uint32_t interval = assignment[adj.neighbors[i]];
        if (interval == kUnassigned) continue;
        if (affinity[interval]++ == 0) touched.push_back(interval);
      }
      std::uint32_t best = kUnassigned;
      for (std::uint32_t i = 0; i < p; ++i) {
        if (population[i] >= cap) continue;
        if (best == kUnassigned || affinity[i] > affinity[best] ||
            (affinity[i] == affinity[best] &&
             population[i] < population[best]))
          best = i;
      }
      for (const std::uint32_t i : touched) affinity[i] = 0;
      HYVE_CHECK_MSG(best != kUnassigned,
                     "hep: no interval below capacity " << cap);
      place(u, best);
    }

    return VertexMap::from_assignment(std::move(assignment), p);
  }

 private:
  PartitionerSpec spec_;
};

class SplitMergePartitioner final : public Partitioner {
 public:
  explicit SplitMergePartitioner(PartitionerSpec spec) : spec_(spec) {}
  const PartitionerSpec& spec() const override { return spec_; }

  VertexMap map_vertices(const Graph& g, std::uint32_t p) const override {
    check_interval_count(g, p);
    const VertexId v = g.num_vertices();
    if (v == 0 || p == 1) return VertexMap::uniform(v, p);

    // Split pass: one sweep over the edge stream; a vertex joins the
    // open chunk on first touch, chunks close at chunk_cap members.
    // State is O(V + chunks): per-vertex chunk id plus per-chunk tallies.
    const std::uint64_t chunk_target =
        static_cast<std::uint64_t>(p) * spec_.splitmerge_chunks;
    const auto num_chunks = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(v, chunk_target));
    const VertexId chunk_cap = (v + num_chunks - 1) / num_chunks;

    std::vector<std::uint32_t> chunk_of(v, kUnassigned);
    std::vector<std::uint64_t> chunk_load(num_chunks, 0);
    std::vector<VertexId> chunk_pop(num_chunks, 0);
    std::uint32_t open = 0;
    VertexId open_fill = 0;
    const auto touch = [&](VertexId u) {
      if (chunk_of[u] != kUnassigned) return;
      chunk_of[u] = open;
      ++chunk_pop[open];
      if (++open_fill == chunk_cap) {
        ++open;
        open_fill = 0;
      }
    };
    for (const Edge& e : g.edges()) {
      touch(e.src);
      touch(e.dst);
      ++chunk_load[chunk_of[e.src]];
      ++chunk_load[chunk_of[e.dst]];
    }
    // Vertices the stream never touched fill the remaining chunk slots.
    for (VertexId u = 0; u < v; ++u) touch(u);

    // Bucket chunk members (id order within a chunk) for the merge pass.
    std::vector<std::uint64_t> chunk_begin(num_chunks + std::size_t{1}, 0);
    for (VertexId u = 0; u < v; ++u) ++chunk_begin[chunk_of[u] + 1];
    for (std::uint32_t c = 0; c < num_chunks; ++c)
      chunk_begin[c + 1] += chunk_begin[c];
    std::vector<VertexId> members(v);
    {
      std::vector<std::uint64_t> cursor(chunk_begin.begin(),
                                        chunk_begin.end() - 1);
      for (VertexId u = 0; u < v; ++u) members[cursor[chunk_of[u]]++] = u;
    }

    // Merge pass: heaviest chunk first onto the least-loaded interval
    // with room for all of it; a chunk no interval can hold whole is
    // split across intervals in index order.
    std::vector<std::uint32_t> merge_order(num_chunks);
    for (std::uint32_t c = 0; c < num_chunks; ++c) merge_order[c] = c;
    std::sort(merge_order.begin(), merge_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (chunk_load[a] != chunk_load[b])
                  return chunk_load[a] > chunk_load[b];
                return a < b;
              });

    const VertexId cap = interval_capacity(v, p);
    std::vector<std::uint32_t> assignment(v, kUnassigned);
    std::vector<std::uint64_t> load(p, 0);
    std::vector<VertexId> population(p, 0);
    using HeapEntry = std::pair<std::uint64_t, std::uint32_t>;  // load, id
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        min_heap;
    for (std::uint32_t i = 0; i < p; ++i) min_heap.push({0, i});

    for (const std::uint32_t c : merge_order) {
      std::vector<HeapEntry> stash;
      std::uint32_t chosen = kUnassigned;
      while (!min_heap.empty()) {
        const HeapEntry top = min_heap.top();
        min_heap.pop();
        if (top.first != load[top.second]) continue;  // stale entry
        if (population[top.second] + chunk_pop[c] <= cap) {
          chosen = top.second;
          break;
        }
        stash.push_back(top);
      }
      for (const HeapEntry& e : stash) min_heap.push(e);
      if (chosen != kUnassigned) {
        for (std::uint64_t i = chunk_begin[c]; i < chunk_begin[c + 1]; ++i)
          assignment[members[i]] = chosen;
        population[chosen] += chunk_pop[c];
        load[chosen] += chunk_load[c];
        min_heap.push({load[chosen], chosen});
        continue;
      }
      // Split the chunk across whatever headroom remains.
      const double spread = chunk_pop[c] == 0
                                ? 0.0
                                : static_cast<double>(chunk_load[c]) /
                                      static_cast<double>(chunk_pop[c]);
      for (std::uint64_t i = chunk_begin[c]; i < chunk_begin[c + 1]; ++i) {
        std::uint32_t target = kUnassigned;
        for (std::uint32_t j = 0; j < p; ++j) {
          if (population[j] < cap) {
            target = j;
            break;
          }
        }
        HYVE_CHECK_MSG(target != kUnassigned,
                       "splitmerge: no interval below capacity " << cap);
        assignment[members[i]] = target;
        ++population[target];
        load[target] += static_cast<std::uint64_t>(spread);
        min_heap.push({load[target], target});
      }
    }

    return VertexMap::from_assignment(std::move(assignment), p);
  }

 private:
  PartitionerSpec spec_;
};

std::string format_double(double v) {
  std::ostringstream os;
  os << v;  // default precision: "2", "1.5", "0.25" — parse inverts it
  return os.str();
}

bool parse_strict_double(const std::string& text, double& out) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || !std::isfinite(v)) return false;
    out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_strict_u32(const std::string& text, std::uint32_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  try {
    std::size_t used = 0;
    const unsigned long v = std::stoul(text, &used);
    if (used != text.size() || v > ~std::uint32_t{0}) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::string PartitionerSpec::to_string() const {
  switch (strategy) {
    case PartitionStrategy::kIntervalBlock:
      return "interval";
    case PartitionStrategy::kHep:
      return "hep:tau=" + format_double(hep_tau);
    case PartitionStrategy::kSplitMerge:
      return "splitmerge:chunks=" + std::to_string(splitmerge_chunks);
  }
  HYVE_CHECK_MSG(false, "unknown partition strategy");
}

void PartitionerSpec::validate() const {
  HYVE_CHECK_MSG(std::isfinite(hep_tau) && hep_tau > 0,
                 "hep tau must be positive, got " << hep_tau);
  HYVE_CHECK_MSG(splitmerge_chunks >= 1,
                 "splitmerge chunks must be at least 1");
}

std::optional<PartitionerSpec> parse_partitioner(const std::string& text) {
  std::string head = text;
  std::string params;
  bool has_params = false;
  const std::size_t colon = text.find(':');
  if (colon != std::string::npos) {
    head = text.substr(0, colon);
    params = text.substr(colon + 1);
    has_params = true;
  }

  PartitionerSpec spec;
  if (head == "interval" || head == "interval-block") {
    if (has_params) return std::nullopt;  // the strategy has no parameters
    spec.strategy = PartitionStrategy::kIntervalBlock;
    return spec;
  }
  if (head == "hep") {
    spec.strategy = PartitionStrategy::kHep;
    if (has_params) {
      if (params.rfind("tau=", 0) != 0) return std::nullopt;
      double tau = 0;
      if (!parse_strict_double(params.substr(4), tau) || tau <= 0)
        return std::nullopt;
      spec.hep_tau = tau;
    }
    return spec;
  }
  if (head == "splitmerge") {
    spec.strategy = PartitionStrategy::kSplitMerge;
    if (has_params) {
      if (params.rfind("chunks=", 0) != 0) return std::nullopt;
      std::uint32_t chunks = 0;
      if (!parse_strict_u32(params.substr(7), chunks) || chunks == 0)
        return std::nullopt;
      spec.splitmerge_chunks = chunks;
    }
    return spec;
  }
  return std::nullopt;
}

std::unique_ptr<Partitioner> make_partitioner(const PartitionerSpec& spec) {
  spec.validate();
  switch (spec.strategy) {
    case PartitionStrategy::kIntervalBlock:
      return std::make_unique<IntervalBlockPartitioner>(spec);
    case PartitionStrategy::kHep:
      return std::make_unique<HepPartitioner>(spec);
    case PartitionStrategy::kSplitMerge:
      return std::make_unique<SplitMergePartitioner>(spec);
  }
  HYVE_CHECK_MSG(false, "unknown partition strategy");
}

PartitionStats compute_partition_stats(const Partitioning& schedule,
                                       int num_pus) {
  HYVE_CHECK(num_pus >= 1);
  PartitionStats stats;
  const std::uint32_t p = schedule.num_intervals();
  const auto n = static_cast<std::uint32_t>(num_pus);
  const std::uint64_t e = schedule.num_edges();
  const VertexId v = schedule.num_vertices();

  const std::uint64_t non_empty = schedule.non_empty_blocks();
  stats.n_avg = non_empty == 0 ? 0.0
                               : static_cast<double>(e) /
                                     static_cast<double>(non_empty);
  stats.bank_wake_fraction =
      static_cast<double>(non_empty) /
      static_cast<double>(schedule.num_blocks());

  // The O(E) replication pass is memoised on the schedule; the PU
  // split only needs the block edge counts, O(P^2) per machine config.
  stats.replication_factor = schedule.replication_factor();
  std::uint64_t remote = 0;
  for (std::uint32_t x = 0; x < p; ++x)
    for (std::uint32_t y = 0; y < p; ++y)
      if (x % n != y % n) remote += schedule.block_edge_count(x, y);
  stats.remote_edge_fraction =
      e == 0 ? 0.0 : static_cast<double>(remote) / static_cast<double>(e);

  const double mean_pop = static_cast<double>(v) / static_cast<double>(p);
  stats.interval_balance =
      v == 0 ? 1.0
             : static_cast<double>(schedule.vertex_map().max_population()) /
                   mean_pop;
  return stats;
}

}  // namespace hyve
