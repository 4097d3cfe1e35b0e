/// \file sampled_block.h
/// \brief Subgraph-block representation of a sampled k-hop neighborhood:
/// the deduplicated frontier relabeled to dense local ids plus one
/// local-id CSR per hop.
///
/// The legacy sampler output (NeighborhoodSample) is a flat vector of
/// global VertexIds per hop; every consumer that wants a vertex's feature
/// row or cached embedding pays a hash lookup per slot per hop, and the
/// same vertex's attributes are re-gathered once per occurrence. Systems
/// that succeeded AliGraph (BGL, GLISP) materialize the sampled
/// neighborhood as a compact relabeled block instead: unique vertices get
/// dense local ids [0, n), each hop becomes a CSR of local-id edges, and
/// the feature matrix is gathered exactly once per unique vertex by
/// GatherBlockFeatures (feature_source.h), which returns it beside the
/// block. All downstream work — AGGREGATE / COMBINE, gradient scatter —
/// then runs on dense row indices with no hash in the hot loop.
///
/// Layout (two hops, fan-outs f1 / f2):
///
///   globals:  [ g0 g1 g2 ... g(n-1) ]        unique, local id == index
///   roots:    [ l(r0) l(r1) ... ]            local ids, one per root SLOT
///   hop 0:    dst = roots' slots             |dst| = B,   |src| = B*f1
///   hop 1:    dst = hop 0's src slots        |dst| = B*f1, |src| = B*f1*f2
///
/// Slots, not vertices, index the CSRs: the same vertex appearing in two
/// slots keeps two (independently drawn) neighbor sets, so block-based
/// aggregation is bit-identical to the legacy flat path on the same RNG
/// seed. Deduplication pays off in feature gathering: one row per unique
/// vertex instead of one per slot.

#ifndef ALIGRAPH_BLOCK_SAMPLED_BLOCK_H_
#define ALIGRAPH_BLOCK_SAMPLED_BLOCK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "nn/matrix.h"

namespace aligraph {

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

namespace block {

/// \brief Metric handles of block relabelling and gathering; per-call sites
/// read them through obs::DefaultHandles<BlockMetrics>().
struct BlockMetrics {
  obs::Histogram* build_us = nullptr;
  obs::Gauge* dedup_ratio = nullptr;
  obs::Histogram* frontier_dup_ratio = nullptr;  ///< one record per hop
  obs::Counter* gather_bytes = nullptr;

  /// All-null handles for a null registry.
  static BlockMetrics Resolve(obs::MetricsRegistry* reg);
};

/// \brief One hop's local-id CSR: destination SLOTS (positions in the
/// previous level, each annotated with the local id of the vertex that
/// occupies it) mapped to the local ids of their sampled neighbors.
struct BlockHop {
  uint32_t fan = 0;               ///< fixed fan-out of this hop
  std::vector<uint32_t> dst;      ///< local id per destination slot
  std::vector<uint32_t> offsets;  ///< size dst.size() + 1; stride == fan
  std::vector<uint32_t> src;      ///< local ids of drawn neighbors

  size_t num_dst() const { return dst.size(); }
  size_t num_edges() const { return src.size(); }
};

/// \brief A relabeled k-hop sample: unique frontier + per-hop CSRs.
class SampledBlock {
 public:
  SampledBlock() = default;

  /// Builds a block from the legacy flat representation: `hops[k]` is the
  /// flattened hop-k frontier (size roots.size() * fans[0] * ... * fans[k])
  /// exactly as NeighborhoodSample lays it out. Local ids are assigned in
  /// first-appearance order (roots first, then hop 0, ...), which makes the
  /// relabeling deterministic for a fixed sample; the relabel table lives
  /// only for the call. Records "block.build_us", "block.dedup_ratio" and,
  /// per hop, "sample.frontier_dup_ratio" (hop slots / distinct vertices
  /// in that hop).
  static SampledBlock Build(std::span<const VertexId> roots,
                            std::span<const std::vector<VertexId>> hops,
                            std::span<const uint32_t> fans);

  /// Unique frontier size n (dense local ids are [0, n)).
  size_t num_vertices() const { return globals_.size(); }
  std::span<const VertexId> globals() const { return globals_; }
  VertexId global_of(uint32_t local) const { return globals_[local]; }

  /// Local id per root SLOT (duplicated roots keep duplicated slots).
  std::span<const uint32_t> root_locals() const { return root_locals_; }
  const std::vector<BlockHop>& hops() const { return hops_; }

  /// Total slot count across roots and every hop — the row count the
  /// un-deduplicated flat representation would gather features for.
  size_t total_slots() const;

  /// total_slots() / num_vertices(): how many feature-row gathers the
  /// relabeling saves (>= 1; 1 means no duplicates at all).
  double dedup_ratio() const;

  /// True when the draw degraded under faults (stale / resampled slots).
  /// Failed feature fetches are counted in CommStats::failed_reads.
  bool partial() const { return partial_; }
  uint64_t degraded_draws() const { return degraded_draws_; }

  void set_partial(bool partial) { partial_ = partial; }
  void add_degraded_draws(uint64_t n) { degraded_draws_ += n; }

 private:
  std::vector<VertexId> globals_;
  std::vector<uint32_t> root_locals_;
  std::vector<BlockHop> hops_;
  bool partial_ = false;
  uint64_t degraded_draws_ = 0;
};

/// Materializes one row per local id in `locals` from a block's dense
/// [num_vertices, d] row matrix — bitwise copies, used where an operator
/// needs per-slot rows (e.g. the self side of COMBINE).
nn::Matrix GatherRows(const nn::Matrix& rows,
                      std::span<const uint32_t> locals);

}  // namespace block
}  // namespace aligraph

#endif  // ALIGRAPH_BLOCK_SAMPLED_BLOCK_H_
