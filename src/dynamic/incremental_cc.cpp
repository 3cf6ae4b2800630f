#include "dynamic/incremental_cc.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace hyve {

IncrementalCc::IncrementalCc(const DynamicGraphStore& store)
    : store_(&store) {
  recompute();
}

VertexId IncrementalCc::find(VertexId v) {
  HYVE_CHECK(v < parent_.size());
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];  // path halving
    v = parent_[v];
  }
  return v;
}

void IncrementalCc::merge(VertexId a, VertexId b) {
  const VertexId ra = find(a);
  const VertexId rb = find(b);
  if (ra == rb) return;
  // Min-id representative keeps component_of() canonical.
  parent_[std::max(ra, rb)] = std::min(ra, rb);
}

void IncrementalCc::on_add_edge(Edge e) {
  if (recompute_pending_) return;  // will be rebuilt from the store anyway
  if (e.src >= parent_.size() || e.dst >= parent_.size()) {
    recompute_pending_ = true;
    return;
  }
  merge(e.src, e.dst);
}

void IncrementalCc::on_add_vertex(VertexId v) {
  if (recompute_pending_) return;
  if (v != parent_.size()) {
    recompute_pending_ = true;  // unexpected id: resync from the store
    return;
  }
  parent_.push_back(v);  // fresh singleton component
}

void IncrementalCc::on_delete_edge(Edge) { recompute_pending_ = true; }

void IncrementalCc::on_delete_vertex(VertexId) {
  // §5 semantics: the vertex value is invalidated but its edges remain,
  // so connectivity is unchanged; nothing to do.
}

void IncrementalCc::recompute() {
  ++recompute_count_;
  parent_.resize(store_->num_vertices());
  std::iota(parent_.begin(), parent_.end(), VertexId{0});
  store_->for_each_edge([&](const Edge& e) { merge(e.src, e.dst); });
  recompute_pending_ = false;
}

void IncrementalCc::ensure_fresh() {
  if (recompute_pending_) recompute();
}

VertexId IncrementalCc::component_of(VertexId v) {
  ensure_fresh();
  return find(v);
}

std::uint64_t IncrementalCc::num_components() {
  ensure_fresh();
  std::uint64_t count = 0;
  for (VertexId v = 0; v < parent_.size(); ++v) count += (find(v) == v);
  return count;
}

}  // namespace hyve
