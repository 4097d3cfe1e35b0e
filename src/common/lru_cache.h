/// \file lru_cache.h
/// \brief Least-recently-used cache, the replacement policy the paper applies
/// to the attribute indices IV/IE (Section 3.2) and one of the neighbor-cache
/// comparators in Figure 9.

#ifndef ALIGRAPH_COMMON_LRU_CACHE_H_
#define ALIGRAPH_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace aligraph {

/// \brief Fixed-capacity map evicting the least-recently-used entry.
///
/// Not internally synchronized; callers that share a cache across threads
/// wrap it (the cluster module touches each worker's caches only from that
/// worker's reading thread).
template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    ALIGRAPH_CHECK_GT(capacity, 0u);
  }

  /// Returns the value for key and marks it most-recently-used.
  std::optional<V> Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites key, evicting the LRU entry when full.
  void Put(const K& key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (index_.size() >= capacity_) {
      auto& victim = order_.back();
      if (eviction_callback_) eviction_callback_(victim.first, victim.second);
      index_.erase(victim.first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
  }

  bool Contains(const K& key) const { return index_.count(key) > 0; }
  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }

  /// Access statistics; used by the Fig. 9 cache-policy benchmark.
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }
  double HitRate() const {
    const size_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

  /// Drops key if present, invoking the eviction callback (the entry leaves
  /// the cache, just not under capacity pressure — the eviction counter is
  /// untouched). Returns true when the key was held.
  bool Erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    if (eviction_callback_) {
      eviction_callback_(it->second->first, it->second->second);
    }
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Clear() {
    order_.clear();
    index_.clear();
  }

  /// Invoked with (key, value) just before an entry is evicted.
  void SetEvictionCallback(std::function<void(const K&, V&)> cb) {
    eviction_callback_ = std::move(cb);
  }

 private:
  size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = most recent
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> index_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  std::function<void(const K&, V&)> eviction_callback_;
};

}  // namespace aligraph

#endif  // ALIGRAPH_COMMON_LRU_CACHE_H_
