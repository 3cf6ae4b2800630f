// Incremental connected-components maintenance over a dynamic graph —
// the natural algorithmic companion to §5's storage support.
//
// §5 gives HyVE O(1) structural updates; this module keeps an analysis
// result (weakly connected components) fresh under those updates instead
// of re-running label propagation after every change:
//   * add edge    — O(alpha) union-find merge;
//   * add vertex  — new singleton component;
//   * delete edge / delete vertex — connectivity may split, which
//     union-find cannot undo; the change is queued and a recompute over
//     the store's current edges runs lazily on the next query (the same
//     "inductive preprocessing" trade §5 makes for vertex overflow).
// Components are identified by their minimum vertex id, matching
// CcProgram over the symmetrised snapshot (tested).
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/dynamic_graph.hpp"

namespace hyve {

class IncrementalCc {
 public:
  explicit IncrementalCc(const DynamicGraphStore& store);

  // Structural notifications (call alongside the store mutation).
  void on_add_edge(Edge e);
  void on_add_vertex(VertexId v);
  void on_delete_edge(Edge e);
  void on_delete_vertex(VertexId v);

  // Component representative (minimum vertex id in the component).
  // Triggers the lazy recompute if a deletion is pending.
  VertexId component_of(VertexId v);
  std::uint64_t num_components();

  // Statistics: how often the expensive path ran.
  std::uint64_t recompute_count() const { return recompute_count_; }
  bool recompute_pending() const { return recompute_pending_; }

 private:
  VertexId find(VertexId v);
  void merge(VertexId a, VertexId b);
  void recompute();
  void ensure_fresh();

  const DynamicGraphStore* store_;
  std::vector<VertexId> parent_;
  bool recompute_pending_ = false;
  std::uint64_t recompute_count_ = 0;
};

}  // namespace hyve
