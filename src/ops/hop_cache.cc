#include "ops/hop_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace aligraph {
namespace ops {

HopEmbeddingCache::HopEmbeddingCache(size_t dim)
    : dim_(dim),
      obs_reused_rows_(obs::DefaultCounter("block.reused_rows")) {}

std::span<const float> HopEmbeddingCache::Lookup(int hop, VertexId v) {
  auto it = index_.find(Key(hop, v));
  if (it == index_.end()) {
    ++misses_;
    return {};
  }
  ++hits_;
  return {storage_.data() + it->second, dim_};
}

void HopEmbeddingCache::Insert(int hop, VertexId v,
                               std::span<const float> row) {
  ALIGRAPH_CHECK_EQ(row.size(), dim_);
  const uint64_t key = Key(hop, v);
  auto it = index_.find(key);
  if (it == index_.end()) {
    const size_t offset = storage_.size();
    storage_.insert(storage_.end(), row.begin(), row.end());
    index_[key] = offset;
  } else {
    std::copy(row.begin(), row.end(), storage_.begin() + it->second);
  }
}

size_t HopEmbeddingCache::LookupRows(int hop,
                                     std::span<const VertexId> globals,
                                     nn::Matrix* rows,
                                     std::vector<uint8_t>* present) {
  ALIGRAPH_CHECK_EQ(rows->rows(), globals.size());
  ALIGRAPH_CHECK_EQ(rows->cols(), dim_);
  present->assign(globals.size(), 0);
  size_t found = 0;
  for (size_t i = 0; i < globals.size(); ++i) {
    auto it = index_.find(Key(hop, globals[i]));
    if (it == index_.end()) {
      ++misses_;
      continue;
    }
    std::copy(storage_.begin() + it->second,
              storage_.begin() + it->second + dim_, rows->Row(i).begin());
    (*present)[i] = 1;
    ++hits_;
    ++found;
  }
  if (obs_reused_rows_ != nullptr && found > 0) obs_reused_rows_->Add(found);
  return found;
}

void HopEmbeddingCache::InsertRows(int hop, std::span<const VertexId> globals,
                                   const nn::Matrix& rows,
                                   const std::vector<uint8_t>* only_missing) {
  ALIGRAPH_CHECK_EQ(rows.rows(), globals.size());
  ALIGRAPH_CHECK_EQ(rows.cols(), dim_);
  for (size_t i = 0; i < globals.size(); ++i) {
    if (only_missing != nullptr && (*only_missing)[i] != 0) continue;
    Insert(hop, globals[i], rows.Row(i));
  }
}

void HopEmbeddingCache::Reset() {
  index_.clear();
  storage_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace ops
}  // namespace aligraph
