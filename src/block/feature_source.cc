#include "block/feature_source.h"

#include <algorithm>
#include <cstring>

#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "ops/hop_cache.h"

namespace aligraph {
namespace block {

namespace {

/// Copies a (possibly shorter or longer) payload into a dim-wide row:
/// truncate past dim, leave the zero tail when the payload is shorter.
void CopyPadded(std::span<const float> payload, std::span<float> row) {
  const size_t n = std::min(payload.size(), row.size());
  if (n > 0) std::memcpy(row.data(), payload.data(), n * sizeof(float));
}

}  // namespace

Status MatrixFeatureSource::Gather(std::span<const VertexId> vertices,
                                   nn::Matrix* out,
                                   std::vector<uint8_t>* ok) {
  ALIGRAPH_CHECK_EQ(out->rows(), vertices.size());
  ALIGRAPH_CHECK_EQ(out->cols(), matrix_.cols());
  if (ok != nullptr) ok->assign(vertices.size(), 1);
  for (size_t i = 0; i < vertices.size(); ++i) {
    const std::span<const float> src = matrix_.Row(vertices[i]);
    std::memcpy(out->Row(i).data(), src.data(), src.size() * sizeof(float));
  }
  return Status::OK();
}

Status GraphFeatureSource::Gather(std::span<const VertexId> vertices,
                                  nn::Matrix* out, std::vector<uint8_t>* ok) {
  ALIGRAPH_CHECK_EQ(out->rows(), vertices.size());
  ALIGRAPH_CHECK_EQ(out->cols(), dim_);
  if (ok != nullptr) ok->assign(vertices.size(), 1);
  for (size_t i = 0; i < vertices.size(); ++i) {
    CopyPadded(graph_.VertexFeatures(vertices[i]), out->Row(i));
  }
  return Status::OK();
}

Status ClusterFeatureSource::Gather(std::span<const VertexId> vertices,
                                    nn::Matrix* out,
                                    std::vector<uint8_t>* ok) {
  ALIGRAPH_CHECK_EQ(out->rows(), vertices.size());
  ALIGRAPH_CHECK_EQ(out->cols(), dim_);
  std::vector<AttrId> ids;
  std::vector<uint8_t> slot_ok;
  const Status status =
      cluster_.GetVertexAttrBatch(worker_, vertices, &ids, stats_, &slot_ok);
  const AttributeStore& store = cluster_.graph().vertex_attributes();
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (slot_ok[i] == 0 || ids[i] == kNoAttr) continue;
    CopyPadded(store.Get(ids[i]), out->Row(i));
  }
  if (ok != nullptr) *ok = std::move(slot_ok);
  return status;
}

nn::Matrix GatherBlockFeatures(const SampledBlock& blk, FeatureSource& source,
                               ops::HopEmbeddingCache* row_cache) {
  obs::Counter* bytes = obs::DefaultHandles<BlockMetrics>().gather_bytes;
  nn::Matrix x(blk.num_vertices(), source.dim());
  if (row_cache == nullptr) {
    // No cache: every row is fetched, straight into the block matrix.
    if (blk.num_vertices() == 0) return x;
    (void)source.Gather(blk.globals(), &x);
    if (bytes != nullptr) {
      bytes->Add(static_cast<uint64_t>(x.size()) * sizeof(float));
    }
    return x;
  }
  std::vector<uint8_t> present;
  row_cache->LookupRows(0, blk.globals(), &x, &present);
  std::vector<VertexId> missing;
  std::vector<uint32_t> missing_rows;
  for (size_t i = 0; i < blk.num_vertices(); ++i) {
    if (present[i] != 0) continue;
    missing.push_back(blk.globals()[i]);
    missing_rows.push_back(static_cast<uint32_t>(i));
  }
  if (missing.empty()) return x;
  nn::Matrix fetched(missing.size(), source.dim());
  std::vector<uint8_t> ok;
  (void)source.Gather(missing, &fetched, &ok);
  for (size_t k = 0; k < missing.size(); ++k) {
    auto src = fetched.Row(k);
    std::copy(src.begin(), src.end(), x.Row(missing_rows[k]).begin());
  }
  if (bytes != nullptr) {
    bytes->Add(static_cast<uint64_t>(fetched.size()) * sizeof(float));
  }
  // `ok` doubles as the skip mask: failed rows read 0 == "insert", so flip
  // it — only successfully fetched rows enter the cache.
  std::vector<uint8_t> skip(missing.size(), 0);
  for (size_t k = 0; k < missing.size(); ++k) skip[k] = ok[k] == 0 ? 1 : 0;
  row_cache->InsertRows(0, missing, fetched, &skip);
  return x;
}

}  // namespace block
}  // namespace aligraph
