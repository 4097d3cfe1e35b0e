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

std::optional<std::span<const Neighbor>> LruNeighborCache::Lookup(VertexId v) {
  auto hit = cache_.Get(v);
  if (!hit.has_value()) return std::nullopt;
  // Pin the looked-up list so the returned span outlives a later eviction.
  last_ = *hit;
  return std::span<const Neighbor>(*last_);
}

void LruNeighborCache::OnRemoteFetch(VertexId v,
                                     std::span<const Neighbor> neighbors) {
  if (cache_.Contains(v)) return;
  auto entry = std::make_shared<std::vector<Neighbor>>(neighbors.begin(),
                                                       neighbors.end());
  entries_ += entry->size();
  if (!callback_installed_) {
    callback_installed_ = true;
    cache_.SetEvictionCallback(
        [this](const VertexId&, std::shared_ptr<std::vector<Neighbor>>& val) {
          entries_ -= val->size();
        });
  }
  cache_.Put(v, std::move(entry));
}

void LruNeighborCache::Invalidate(VertexId v) {
  // Erase runs the eviction callback, which keeps entries_ exact. The last_
  // pin (if it holds this entry) keeps previously returned spans valid.
  cache_.Erase(v);
}

}  // namespace aligraph
