/// \file feature_source.h
/// \brief Where a block's feature matrix comes from: a pre-built matrix, a
/// local AttributedGraph's attribute store, or the simulated cluster with
/// coalesced (and fault-aware) remote attribute reads.
///
/// GatherBlockFeatures is the one gather: training's pipeline runs it as its
/// gather stage and serving on each request's thread, once per block,
/// fetching exactly one row per unique vertex, so the source abstraction is
/// batched by construction: one Gather call per block, never one fetch per
/// slot. The cluster-backed source mirrors the
/// adjacency path's design — local slots are free, the remote residue is
/// deduplicated and coalesced into one message per destination worker, and
/// under fault injection each coalesced message is judged once, with
/// failed rows reported instead of aborting the batch.

#ifndef ALIGRAPH_BLOCK_FEATURE_SOURCE_H_
#define ALIGRAPH_BLOCK_FEATURE_SOURCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "nn/matrix.h"

namespace aligraph {

class Cluster;
struct CommStats;

namespace ops {
class HopEmbeddingCache;
}  // namespace ops

namespace block {

class SampledBlock;

/// \brief Batched feature-row provider for block gathering.
class FeatureSource {
 public:
  virtual ~FeatureSource() = default;

  /// Feature dimensionality: every gathered row has this many columns.
  virtual size_t dim() const = 0;

  /// Fills out->Row(i) with the feature row of vertices[i]. `out` must be
  /// a zero-initialized [vertices.size(), dim()] matrix. Rows whose fetch
  /// failed (fallible sources only) are left zero; when `ok` is non-null
  /// it is resized to vertices.size() with ok[i] == 0 marking the failed
  /// rows. Returns OK when every row resolved, Unavailable otherwise.
  virtual Status Gather(std::span<const VertexId> vertices, nn::Matrix* out,
                        std::vector<uint8_t>* ok = nullptr) = 0;
};

/// \brief Rows of a pre-built [num_vertices, d] matrix indexed by global
/// vertex id — the in-memory training case (e.g. BuildFeatureMatrix
/// output). The matrix must outlive the source.
class MatrixFeatureSource : public FeatureSource {
 public:
  explicit MatrixFeatureSource(const nn::Matrix& matrix) : matrix_(matrix) {}

  size_t dim() const override { return matrix_.cols(); }
  Status Gather(std::span<const VertexId> vertices, nn::Matrix* out,
                std::vector<uint8_t>* ok = nullptr) override;

 private:
  const nn::Matrix& matrix_;
};

/// \brief Raw attribute payloads of a local AttributedGraph, truncated or
/// zero-padded to `dim`. Vertices without attributes get a zero row.
class GraphFeatureSource : public FeatureSource {
 public:
  GraphFeatureSource(const AttributedGraph& graph, size_t dim)
      : graph_(graph), dim_(dim) {}

  size_t dim() const override { return dim_; }
  Status Gather(std::span<const VertexId> vertices, nn::Matrix* out,
                std::vector<uint8_t>* ok = nullptr) override;

 private:
  const AttributedGraph& graph_;
  size_t dim_;
};

/// \brief Attribute payloads read through the cluster from one worker's
/// perspective: local slots cost nothing, remote slots ride coalesced
/// per-worker attribute messages (Cluster::GetVertexAttrBatch), and
/// under fault injection failed messages degrade to zero rows instead of
/// aborting the gather.
class ClusterFeatureSource : public FeatureSource {
 public:
  ClusterFeatureSource(Cluster& cluster, WorkerId worker, size_t dim,
                       CommStats* stats)
      : cluster_(cluster), worker_(worker), dim_(dim), stats_(stats) {}

  size_t dim() const override { return dim_; }
  Status Gather(std::span<const VertexId> vertices, nn::Matrix* out,
                std::vector<uint8_t>* ok = nullptr) override;

 private:
  Cluster& cluster_;
  WorkerId worker_;
  size_t dim_;
  CommStats* stats_;
};

/// Materializes a block's [num_vertices, d] feature matrix: the GATHER
/// step of block execution, which training's pipeline schedules on its own
/// lane and serving runs on the request's thread.
/// With a null `row_cache` every row is fetched from `source` straight into
/// the returned matrix. Otherwise rows already held by `row_cache` (keyed
/// hop 0 by global id) are reused bitwise; only the missing residue is
/// fetched and — when the fetch succeeded — admitted to the cache. Only
/// fetched bytes are charged to "block.gather_bytes". Rows whose fetch
/// failed stay zero (and are not admitted); the source counts them in its
/// CommStats.
nn::Matrix GatherBlockFeatures(const SampledBlock& blk, FeatureSource& source,
                               ops::HopEmbeddingCache* row_cache);

}  // namespace block
}  // namespace aligraph

#endif  // ALIGRAPH_BLOCK_FEATURE_SOURCE_H_
