#include "storage/neighbor_cache.h"

namespace aligraph {

StaticNeighborCache::StaticNeighborCache(std::string name,
                                         const AttributedGraph& graph,
                                         const std::vector<VertexId>& vertices)
    : name_(std::move(name)),
      graph_(&graph),
      pinned_(graph.num_vertices(), 0) {
  for (VertexId v : vertices) {
    if (pinned_[v]) continue;
    pinned_[v] = 1;
    ++size_;
    entries_ += graph.OutDegree(v);
  }
}

void StaticNeighborCache::Invalidate(VertexId v) {
  if (!pinned_[v]) return;
  pinned_[v] = 0;
  --size_;
  entries_ -= graph_->OutDegree(v);
}

LruNeighborCache::LruNeighborCache(const AttributedGraph& graph,
                                   size_t capacity)
    : graph_(&graph), cache_(capacity == 0 ? 1 : capacity) {
  // Runs on capacity evictions and on Erase, which keeps entries_ exact.
  cache_.SetEvictionCallback(
      [this](const VertexId&, size_t& degree) { entries_ -= degree; });
}

void LruNeighborCache::OnRemoteFetch(VertexId v) {
  if (cache_.Contains(v)) return;
  const size_t degree = graph_->OutDegree(v);
  entries_ += degree;
  cache_.Put(v, degree);
}

}  // namespace aligraph
