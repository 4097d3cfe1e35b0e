/// \file neighbor_cache.h
/// \brief Per-server caches of remote vertices' out-neighbors and the three
/// policies compared in Figure 9: importance-based (the paper's), random,
/// and LRU.

#ifndef ALIGRAPH_STORAGE_NEIGHBOR_CACHE_H_
#define ALIGRAPH_STORAGE_NEIGHBOR_CACHE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "graph/graph.h"

namespace aligraph {

/// \brief Policy interface for a server-local cache of out-neighbor lists.
///
/// Lookup returns the cached adjacency when present. OnRemoteFetch gives
/// reactive policies (LRU) a chance to admit data that was just fetched;
/// static policies (importance, random) ignore it because their contents
/// are pinned at build time.
class NeighborCache {
 public:
  virtual ~NeighborCache() = default;
  virtual std::string name() const = 0;

  /// Returns the cached neighbor list of v, if cached.
  virtual std::optional<std::span<const Neighbor>> Lookup(VertexId v) = 0;

  /// Called after a remote fetch of v's neighbors.
  virtual void OnRemoteFetch(VertexId v,
                             std::span<const Neighbor> neighbors) = 0;

  /// Drops v's entry if cached. Called by the cluster when an online update
  /// makes the cached copy stale for the reader's epoch; like every other
  /// cache call it runs on the owning worker's reading thread.
  virtual void Invalidate(VertexId v) {}

  /// Number of vertices currently cached.
  virtual size_t size() const = 0;
  /// Total cached Neighbor entries (storage cost).
  virtual size_t entry_count() const = 0;
};

/// \brief Pinned cache over a fixed vertex set, used by both the
/// importance-based and the random strategy (they differ only in how the
/// set is chosen).
///
/// The pin set is one flag byte per graph vertex over the graph's own CSR:
/// a hit views graph.OutNeighbors(v), the same pre-update bytes a worker's
/// copy would hold, so the graph must outlive the cache. entry_count() is
/// still the degree sum a real worker would store.
class StaticNeighborCache : public NeighborCache {
 public:
  /// Pins every vertex of `vertices`; a repeated vertex is pinned once.
  StaticNeighborCache(std::string name, const AttributedGraph& graph,
                      const std::vector<VertexId>& vertices);

  std::string name() const override { return name_; }
  std::optional<std::span<const Neighbor>> Lookup(VertexId v) override {
    if (!pinned_[v]) return std::nullopt;
    return graph_->OutNeighbors(v);
  }
  void OnRemoteFetch(VertexId v,
                     std::span<const Neighbor> neighbors) override {}
  void Invalidate(VertexId v) override;
  size_t size() const override { return size_; }
  size_t entry_count() const override { return entries_; }

 private:
  std::string name_;
  const AttributedGraph* graph_;
  std::vector<uint8_t> pinned_;  // 1 = v's out-neighbors are cached
  size_t size_ = 0;
  size_t entries_ = 0;
};

/// \brief Reactive LRU cache admitting every remote fetch; the comparison
/// strategy the paper reports as 50-60% slower than importance caching.
class LruNeighborCache : public NeighborCache {
 public:
  explicit LruNeighborCache(size_t capacity)
      : cache_(capacity == 0 ? 1 : capacity) {}

  std::string name() const override { return "lru"; }
  std::optional<std::span<const Neighbor>> Lookup(VertexId v) override;
  void OnRemoteFetch(VertexId v, std::span<const Neighbor> neighbors) override;
  void Invalidate(VertexId v) override;
  size_t size() const override { return cache_.size(); }
  size_t entry_count() const override { return entries_; }

 private:
  LruCache<VertexId, std::shared_ptr<std::vector<Neighbor>>> cache_;
  std::shared_ptr<std::vector<Neighbor>> last_;  // pins the last lookup
  size_t entries_ = 0;
  bool callback_installed_ = false;
};

}  // namespace aligraph

#endif  // ALIGRAPH_STORAGE_NEIGHBOR_CACHE_H_
