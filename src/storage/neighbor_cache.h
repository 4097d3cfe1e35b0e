/// \file neighbor_cache.h
/// \brief Per-server caches of remote vertices' out-neighbors and the three
/// policies compared in Figure 9: importance-based (the paper's), random,
/// and LRU.
///
/// A cache records which remote vertices a worker holds (and, for LRU, how
/// recently it used them), not their bytes: every copy of a vertex the
/// cache admits is its pre-update graph adjacency, which the owner's
/// storage serves byte for byte. So a cache decides only how a read is
/// charged, and its storage cost is the degree sum a real worker would
/// hold.

#ifndef ALIGRAPH_STORAGE_NEIGHBOR_CACHE_H_
#define ALIGRAPH_STORAGE_NEIGHBOR_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "graph/graph.h"

namespace aligraph {

/// \brief Policy interface for a server-local cache of out-neighbor lists.
///
/// Lookup tells whether v is cached. OnRemoteFetch gives reactive policies
/// (LRU) a chance to admit a vertex that was just fetched; static policies
/// (importance, random) ignore it because their contents are pinned at
/// build time, and expose their membership array (pinned()) so that the
/// cluster's batch read can test it without a virtual call.
class NeighborCache {
 public:
  virtual ~NeighborCache() = default;
  virtual std::string name() const = 0;

  /// True when v's out-neighbors are cached (a reactive policy also marks
  /// v most recently used).
  virtual bool Lookup(VertexId v) = 0;

  /// Called after a remote fetch of a never-updated v's neighbors.
  virtual void OnRemoteFetch(VertexId v) = 0;

  /// Drops v's entry if cached. Called by the cluster when an online update
  /// makes the cached copy stale for the reader's epoch; like every other
  /// cache call it runs on the owning worker's reading thread.
  virtual void Invalidate(VertexId v) = 0;

  /// A static policy's membership array, one byte per graph vertex
  /// (nonzero = cached); null for a reactive policy. Non-null promises that
  /// Lookup(v) is pinned()[v] != 0 with no side effect and that
  /// OnRemoteFetch does nothing, so a batch read loads the byte itself
  /// (prefetched, with a select instead of a virtual call and a branch) and
  /// skips admission. The array stays valid while the cache lives;
  /// Invalidate clears bytes in it.
  virtual const uint8_t* pinned() const { return nullptr; }

  /// Number of vertices currently cached.
  virtual size_t size() const = 0;
  /// Total cached Neighbor entries (storage cost).
  virtual size_t entry_count() const = 0;
};

/// \brief Pinned cache over a fixed vertex set, used by both the
/// importance-based and the random strategy (they differ only in how the
/// set is chosen). The pin set is one flag byte per graph vertex; the graph
/// must outlive the cache.
class StaticNeighborCache : public NeighborCache {
 public:
  /// Pins every vertex of `vertices`; a repeated vertex is pinned once.
  StaticNeighborCache(std::string name, const AttributedGraph& graph,
                      const std::vector<VertexId>& vertices);

  std::string name() const override { return name_; }
  bool Lookup(VertexId v) override { return pinned_[v] != 0; }
  void OnRemoteFetch(VertexId v) override {}
  void Invalidate(VertexId v) override;
  const uint8_t* pinned() const override { return pinned_.data(); }
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
/// Each entry is a vertex and its out-degree in `graph`, which must outlive
/// the cache.
class LruNeighborCache : public NeighborCache {
 public:
  LruNeighborCache(const AttributedGraph& graph, size_t capacity);
  LruNeighborCache(const LruNeighborCache&) = delete;
  LruNeighborCache& operator=(const LruNeighborCache&) = delete;

  std::string name() const override { return "lru"; }
  bool Lookup(VertexId v) override { return cache_.Get(v).has_value(); }
  void OnRemoteFetch(VertexId v) override;
  void Invalidate(VertexId v) override { cache_.Erase(v); }
  size_t size() const override { return cache_.size(); }
  size_t entry_count() const override { return entries_; }

 private:
  const AttributedGraph* graph_;
  LruCache<VertexId, size_t> cache_;  // vertex -> out-degree
  size_t entries_ = 0;
};

}  // namespace aligraph

#endif  // ALIGRAPH_STORAGE_NEIGHBOR_CACHE_H_
