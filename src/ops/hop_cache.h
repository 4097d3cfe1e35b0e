/// \file hop_cache.h
/// \brief Materialization cache of intermediate per-hop embedding vectors
/// (Section 3.4): within a mini-batch the sampled neighbor set is shared, so
/// each vertex's hop-k embedding h^(k)_v is computed once and reused,
/// eliminating the redundant recomputation that dominates naive AGGREGATE /
/// COMBINE evaluation. This cache is the source of the Table 5 ~13x
/// operator speedup.

#ifndef ALIGRAPH_OPS_HOP_CACHE_H_
#define ALIGRAPH_OPS_HOP_CACHE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/types.h"
#include "nn/matrix.h"

namespace aligraph {

namespace obs {
class Counter;
}  // namespace obs

namespace ops {

/// \brief Per-mini-batch store of hˆ(k)_v rows, keyed by (hop, vertex).
///
/// hits(), misses() and HitRate() are the only record of its lookups (the
/// Table 5 hit ratio).
class HopEmbeddingCache {
 public:
  explicit HopEmbeddingCache(size_t dim);

  /// Returns the cached row, or an empty span on miss.
  std::span<const float> Lookup(int hop, VertexId v);

  /// Stores (overwrites) the row for (hop, v).
  void Insert(int hop, VertexId v, std::span<const float> row);

  /// Block-level batched lookup: for each global id of a block's unique
  /// frontier, copies the cached (hop, id) row into rows->Row(i) and sets
  /// (*present)[i] = 1; missed slots are untouched with the flag at 0.
  /// Because blocks key rows by GLOBAL vertex id, entries inserted by one
  /// batch are reused by every later batch that samples the same vertex —
  /// hits are additionally counted into "block.reused_rows". Returns the
  /// number of hits.
  size_t LookupRows(int hop, std::span<const VertexId> globals,
                    nn::Matrix* rows, std::vector<uint8_t>* present);

  /// Batched insert of a block's per-vertex rows. When `only_missing` is
  /// non-null (the `present` vector of a prior LookupRows), slots already
  /// present are skipped instead of overwritten.
  void InsertRows(int hop, std::span<const VertexId> globals,
                  const nn::Matrix& rows,
                  const std::vector<uint8_t>* only_missing = nullptr);

  /// Clears all entries; call at mini-batch boundaries.
  void Reset();

  size_t size() const { return index_.size(); }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  double HitRate() const {
    const size_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

 private:
  static uint64_t Key(int hop, VertexId v) {
    return (static_cast<uint64_t>(hop) << 40) | v;
  }

  size_t dim_;
  std::unordered_map<uint64_t, size_t> index_;  // key -> row offset
  std::vector<float> storage_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  obs::Counter* obs_reused_rows_ = nullptr;
};

}  // namespace ops
}  // namespace aligraph

#endif  // ALIGRAPH_OPS_HOP_CACHE_H_
