/// \file layers.h
/// \brief The traced per-layer replay shared by every workload: batches of
/// the workload's own shape are pushed through the library's public layer
/// entry points one call at a time, each call timed and wrapped in an
/// obs::ScopedSpan (recorded when the traced run attaches its tracer).
///
///   graph     CSR reads: batched (LocalNeighborSource::NeighborsBatch) vs
///             per-vertex (AttributedGraph::OutNeighbors), and identity vs
///             hot-first layout (layout::ApplyLayout)
///   sampling  NeighborhoodSampler::Sample (the draw loop alone) and
///             SampleBlock (draws + relabelling)
///   block     SampledBlock::Build, GatherBlockFeatures
///   algo/nn   SageLayer::ForwardBlock / Forward / Backward / Apply
///   obs       SampleBlock with the metrics registry attached vs detached,
///             over a LocalNeighborSource on the workload's graph

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <functional>
#include <span>
#include <vector>

#include "block/feature_source.h"
#include "graph/graph.h"
#include "harness.h"
#include "obs/metrics.h"
#include "sampling/sampler.h"

namespace perfbench {

/// Read loops add their results here so they cannot be optimized away.
inline volatile uint64_t g_sink = 0;

/// Touches an adjacency span the way a draw does (its length and the
/// entries at both ends), so compared read paths pay for the same lines.
inline uint64_t Touch(std::span<const aligraph::Neighbor> nbs) {
  if (nbs.empty()) return 0;
  return nbs.size() + nbs.front().dst + nbs.back().dst;
}

struct LayerReplay {
  /// CSR the graph.* and layout.* probes read (the workload's graph).
  const aligraph::AttributedGraph* graph = nullptr;
  /// Adjacency path of the workload (local CSR or a cluster worker).
  aligraph::NeighborSource* source = nullptr;
  /// Feature path of the workload.
  aligraph::block::FeatureSource* features = nullptr;
  /// Roots and sampler seed of replay batch i.
  std::function<std::vector<aligraph::VertexId>(size_t)> roots;
  std::function<uint64_t(size_t)> sampler_seed;
  std::vector<uint32_t> fans;
  size_t batches = 0;
  size_t dim = 32;  ///< model width
  /// Reuse feature rows across batches through a HopEmbeddingCache, as the
  /// trainer does (serving and k-hop reads gather every row).
  bool row_cache = false;
  uint64_t seed = 1;
  aligraph::obs::MetricsRegistry* registry = nullptr;
};

/// Runs the replay and writes the per-layer metrics (graph.*, layout.*,
/// sampling.*, block.*, algo.*, obs.*) into `report`. A replayed block
/// that differs from the relabelling of the same draws counts as a failed
/// check. The pipeline.* shares come from the workload itself.
void MeasureLayers(const LayerReplay& replay, Report* report);

/// Busy and stall shares of the three pipeline stages over `wall_us` of
/// wall time, from the pipeline.stage_busy_us.* / pipeline.stall_us.*
/// counter deltas between two registry snapshots. Busy shares are
/// per-layer metrics, stall shares workload extras.
void ReportPipelineShares(const aligraph::obs::MetricsSnapshot& before,
                          const aligraph::obs::MetricsSnapshot& after,
                          double wall_us, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
