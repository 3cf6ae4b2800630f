// Build-once caches for the sweep engine (src/exp).
//
// A (config × algorithm × dataset) sweep re-uses the same few graphs,
// partitionings and functional outcomes in every cell; without these
// caches each cell would re-load its graph, re-run the counting-sort
// partitioner and re-run the vertex program. All three caches follow
// one policy: an artifact is built at most once per cache, on first
// request, and kept for the cache's lifetime. They share the Memo
// below, so each is safe for concurrent use by the engine's worker
// pool: two workers needing the same artifact share one build while
// workers needing different artifacts build in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "core/machine.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/partitioner.hpp"

namespace hyve::exp {

// Key → value memo. get() builds the value for a key at most once and
// keeps it for the memo's lifetime. Slots are created under a short map
// lock and filled under a per-slot mutex, so concurrent requests for one
// key wait for a single build while other keys build in parallel. A
// build that throws leaves its slot empty for the next request.
template <typename Key, typename Value>
class Memo {
 public:
  struct Result {
    std::shared_ptr<const Value> value;
    bool built = false;  // this call ran the build
  };

  // `build` returns a std::shared_ptr<const Value>.
  template <typename Build>
  Result get(const Key& key, const Build& build) {
    Slot* slot;
    {
      const std::scoped_lock lock(mu_);
      std::unique_ptr<Slot>& entry = slots_[key];
      if (!entry) entry = std::make_unique<Slot>();
      slot = entry.get();
    }
    const std::scoped_lock lock(slot->mu);
    if (slot->value) return {slot->value, false};
    slot->value = build();
    return {slot->value, true};
  }

 private:
  struct Slot {
    std::mutex mu;  // serialises the build and guards value
    std::shared_ptr<const Value> value;
  };

  std::mutex mu_;  // guards the map, not the builds
  std::map<Key, std::unique_ptr<Slot>> slots_;
};

// Graphs keyed by a caller-chosen string. The five built-in datasets are
// pre-registered under their short names ("YT".."TW") and resolve through
// dataset_graph()'s process-wide store, so they are never duplicated.
class GraphCache {
 public:
  GraphCache();

  // Registers a lazily-built graph under `key` (throws if taken).
  void add(const std::string& key, std::function<Graph()> make);
  // Registers an already-built graph.
  void add(const std::string& key, Graph graph);

  bool contains(const std::string& key) const;

  // The registered graph, built on first use.
  std::shared_ptr<const Graph> acquire(const std::string& key);

  // The hashed_remap(seed) image of `key` (§4.3 balancing). It lives in
  // the graph's own remap memo (Graph::hashed_remap_shared), which direct
  // HyveMachine::run callers share — one remap per sweep, not per cell.
  std::shared_ptr<const Graph> acquire_balanced(const std::string& key,
                                                std::uint64_t seed);

  // Reference-returning convenience; the graph lives as long as the
  // cache.
  const Graph& base(const std::string& key) { return *acquire(key); }

  // Cache key of the balanced image, used by PartitionCache and
  // FunctionalKey to tell it apart from the unbalanced graph.
  static std::string balanced_key(const std::string& key,
                                  std::uint64_t seed) {
    return key + "#balanced:" + std::to_string(seed);
  }

  // Number of registered graphs built so far (not hits).
  std::size_t loads() const { return loads_.load(); }

 private:
  using Maker = std::function<std::shared_ptr<const Graph>()>;

  void register_maker(const std::string& key, Maker make);

  mutable std::mutex mu_;  // guards makers_
  std::map<std::string, Maker> makers_;
  Memo<std::string, Graph> graphs_;
  std::atomic<std::size_t> loads_{0};
};

// Partitionings keyed by (graph key, partitioner strategy, P), so two
// strategies over the same graph can never collide. The caller
// guarantees `key` uniquely identifies the graph's edge layout — use
// GraphCache keys (and GraphCache::balanced_key for remapped images).
class PartitionCache {
 public:
  // Per-strategy counter snapshot (keyed by PartitionerSpec::to_string),
  // so cache effectiveness is attributable per partitioner.
  struct StrategyStats {
    std::size_t hits = 0;
    std::size_t builds = 0;
  };

  // The memoised partitioning of `graph` under `spec` (default: the
  // interval-block strategy), built on first use. Throws if `key` was
  // cached for a graph of a different size.
  std::shared_ptr<const Partitioning> acquire(
      const std::string& key, const Graph& graph, std::uint32_t num_intervals,
      const PartitionerSpec& spec = {});

  // Number of partitionings built so far (not hits).
  std::size_t builds() const { return builds_.load(); }
  // Hit/build counts broken down by partitioner strategy.
  std::map<std::string, StrategyStats> strategy_stats() const;

 private:
  Memo<std::tuple<std::string, std::string, std::uint32_t>, Partitioning>
      partitionings_;
  mutable std::mutex stats_mu_;  // guards strategy_stats_
  std::map<std::string, StrategyStats> strategy_stats_;
  std::atomic<std::size_t> builds_{0};
};

// Key of a memoised functional outcome. Two sweep cells share an
// outcome exactly when their functional inputs agree: the graph image
// (a GraphCache key; hash-balanced images fold the seed in via
// GraphCache::balanced_key), the algorithm, the partitioner strategy
// (block iteration order steers in-pass propagation, so iteration
// counts differ across strategies), the interval count P, and the
// frontier mode. Memory technologies, power gating, data sharing and
// edge width never appear — they only affect accounting, so a sweep
// over memory configs hits this cache on every cell after the first.
struct FunctionalKey {
  std::string graph_key;
  std::string algorithm;
  std::string partitioner = "interval";  // PartitionerSpec::to_string
  std::uint32_t num_intervals = 0;       // P
  bool frontier = false;

  friend bool operator==(const FunctionalKey&,
                         const FunctionalKey&) = default;
  friend auto operator<=>(const FunctionalKey&,
                          const FunctionalKey&) = default;
};

// Memoised functional-phase outcomes (HyveMachine::run_functional_phase
// results) for the sweep engine.
class FunctionalCache {
 public:
  // The memoised outcome for `key`, built on first use via `build`.
  std::shared_ptr<const FunctionalOutcome> acquire(
      const FunctionalKey& key,
      const std::function<FunctionalOutcome()>& build);

  std::size_t hits() const { return hits_.load(); }
  std::size_t misses() const { return misses_.load(); }
  double hit_rate() const {
    const std::size_t h = hits(), m = misses();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / (h + m);
  }

 private:
  Memo<FunctionalKey, FunctionalOutcome> outcomes_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace hyve::exp
