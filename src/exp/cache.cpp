#include "exp/cache.hpp"

#include "graph/datasets.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace hyve::exp {

namespace {

// Registry mirrors of the per-instance atomics (loads()/builds()/...):
// the instance counters stay authoritative for tests; these feed the
// process-wide `--metrics` dump.
void count(const std::string& name) {
  if (obs::enabled()) obs::registry().counter(name).add(1);
}

}  // namespace

GraphCache::GraphCache() {
  // Non-owning views into dataset_graph()'s process-wide store.
  for (const DatasetId id : kAllDatasets)
    makers_.emplace(dataset_name(id), [id] {
      return std::shared_ptr<const Graph>(std::shared_ptr<void>(),
                                          &dataset_graph(id));
    });
}

void GraphCache::register_maker(const std::string& key, Maker make) {
  const std::scoped_lock lock(mu_);
  const bool inserted = makers_.emplace(key, std::move(make)).second;
  HYVE_CHECK_MSG(inserted, "graph key already registered: " << key);
}

void GraphCache::add(const std::string& key, std::function<Graph()> make) {
  register_maker(key, [make = std::move(make)] {
    return std::make_shared<const Graph>(make());
  });
}

void GraphCache::add(const std::string& key, Graph graph) {
  auto holder = std::make_shared<const Graph>(std::move(graph));
  register_maker(key, [holder] { return holder; });
}

bool GraphCache::contains(const std::string& key) const {
  const std::scoped_lock lock(mu_);
  return makers_.count(key) > 0;
}

std::shared_ptr<const Graph> GraphCache::acquire(const std::string& key) {
  const Maker* make;
  {
    const std::scoped_lock lock(mu_);
    const auto it = makers_.find(key);
    HYVE_CHECK_MSG(it != makers_.end(), "unknown graph key: " << key);
    make = &it->second;  // map nodes are never erased
  }
  const auto [graph, built] = graphs_.get(key, *make);
  if (built) {
    ++loads_;
    count("exp.graph_cache.loads");
  } else {
    count("exp.graph_cache.hits");
  }
  return graph;
}

std::shared_ptr<const Graph> GraphCache::acquire_balanced(
    const std::string& key, std::uint64_t seed) {
  return acquire(key)->hashed_remap_shared(seed);
}

std::shared_ptr<const Partitioning> PartitionCache::acquire(
    const std::string& key, const Graph& graph, std::uint32_t num_intervals,
    const PartitionerSpec& spec) {
  const std::string strategy = spec.to_string();
  const auto [partitioning, built] =
      partitionings_.get({key, strategy, num_intervals}, [&] {
        return std::make_shared<const Partitioning>(
            make_partitioner(spec)->partition(graph, num_intervals));
      });
  HYVE_CHECK_MSG(partitioning->num_vertices() == graph.num_vertices() &&
                     partitioning->num_edges() == graph.num_edges(),
                 "partition cache key \"" << key
                                          << "\" reused for a different graph");
  {
    const std::scoped_lock lock(stats_mu_);
    StrategyStats& stats = strategy_stats_[strategy];
    ++(built ? stats.builds : stats.hits);
  }
  if (built) ++builds_;
  const std::string what = built ? "builds" : "hits";
  count("exp.partition_cache." + what);
  count("exp.partition_cache." + what + "." + strategy);
  return partitioning;
}

std::map<std::string, PartitionCache::StrategyStats>
PartitionCache::strategy_stats() const {
  const std::scoped_lock lock(stats_mu_);
  return strategy_stats_;
}

std::shared_ptr<const FunctionalOutcome> FunctionalCache::acquire(
    const FunctionalKey& key,
    const std::function<FunctionalOutcome()>& build) {
  const auto [outcome, built] = outcomes_.get(key, [&] {
    return std::make_shared<const FunctionalOutcome>(build());
  });
  ++(built ? misses_ : hits_);
  count(built ? "exp.functional_cache.misses" : "exp.functional_cache.hits");
  return outcome;
}

}  // namespace hyve::exp
