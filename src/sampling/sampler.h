/// \file sampler.h
/// \brief The sampling layer (Section 3.3): TRAVERSE, NEIGHBORHOOD and
/// NEGATIVE samplers as plugins, plus dynamic-weight sampling whose weights
/// are updated in a backward pass like any other operator.
///
/// Samplers read adjacency through a NeighborSource so the same code runs
/// against a local AttributedGraph or against the simulated distributed
/// Cluster (where reads are cache-aware and communication-counted).
///
/// The NEIGHBORHOOD sampler only draws: its blocks carry ids and CSRs, no
/// feature rows. block::GatherBlockFeatures is the one gather: training's
/// pipeline::BlockPipeline runs it as its own stage, and serving runs it on
/// the thread that serves the request, after the draw. Draws are
/// sequential on the calling thread; training's pipeline lanes and
/// serving's request threads supply the concurrency.

#ifndef ALIGRAPH_SAMPLING_SAMPLER_H_
#define ALIGRAPH_SAMPLING_SAMPLER_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "common/alias_table.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/graph.h"

namespace aligraph {

namespace obs {
class Counter;
}  // namespace obs

/// \brief Adjacency access abstraction shared by all samplers.
///
/// Besides per-vertex reads, sources expose a batched read so callers that
/// know a whole frontier up front (hop expansion, edge sampling) can let
/// the source coalesce data movement. The base implementation falls back to
/// one per-vertex read per slot; distributed sources override it with one
/// coalesced request per destination worker.
class NeighborSource {
 public:
  virtual ~NeighborSource() = default;
  /// All out-neighbors of v.
  virtual std::span<const Neighbor> Neighbors(VertexId v) = 0;
  /// Out-neighbors of v restricted to one edge type.
  virtual std::span<const Neighbor> Neighbors(VertexId v, EdgeType type) = 0;

  /// Batched read: out->spans[i] = adjacency of vertices[i], restricted to
  /// `type` unless it is kAllEdgeTypes. On a fallible source, slots whose
  /// read exhausted its retry budget get out->ok[i] = 0 (span left empty)
  /// and the call returns Unavailable; infallible sources always return OK
  /// with every flag at 1. Default: per-vertex fallback.
  virtual Status NeighborsBatch(std::span<const VertexId> vertices,
                                EdgeType type, BatchResult* out) {
    out->Reset(vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      out->spans[i] = type == kAllEdgeTypes ? Neighbors(vertices[i])
                                            : Neighbors(vertices[i], type);
    }
    return Status::OK();
  }

  /// True when reads through this source can fail (fault injection on a
  /// distributed source). Samplers only engage their degradation paths —
  /// stale-cache admission, partial-result bookkeeping — on fallible
  /// sources, keeping the infallible hot path byte-identical.
  virtual bool fallible() const { return false; }

  /// Pins the backing store at its current epoch for a multi-read scope:
  /// every read until UnpinEpoch resolves against that one epoch, so a
  /// whole k-hop can never observe a mix of two epochs even while update
  /// batches land concurrently. No-ops for immutable sources. The sampler
  /// brackets each DrawHops with this pair.
  virtual void PinEpoch() {}
  virtual void UnpinEpoch() {}
};

/// \brief Reads a local AttributedGraph directly.
class LocalNeighborSource : public NeighborSource {
 public:
  explicit LocalNeighborSource(const AttributedGraph& graph) : graph_(graph) {}
  std::span<const Neighbor> Neighbors(VertexId v) override {
    return graph_.OutNeighbors(v);
  }
  std::span<const Neighbor> Neighbors(VertexId v, EdgeType type) override {
    return graph_.OutNeighbors(v, type);
  }
  // Native batch: a straight-line loop over the graph in slot order, with
  // no virtual dispatch per vertex (local reads have no RPC to amortize).
  Status NeighborsBatch(std::span<const VertexId> vertices, EdgeType type,
                        BatchResult* out) override {
    out->Reset(vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      out->spans[i] = type == kAllEdgeTypes
                          ? graph_.OutNeighbors(vertices[i])
                          : graph_.OutNeighbors(vertices[i], type);
    }
    return Status::OK();
  }

 private:
  const AttributedGraph& graph_;
};

/// \brief Reads through the cluster from the perspective of one worker,
/// recording local/cache/remote access counts. Batched reads coalesce the
/// remote residue into one request per destination worker.
class DistributedNeighborSource : public NeighborSource {
 public:
  DistributedNeighborSource(Cluster& cluster, WorkerId worker,
                            CommStats* stats)
      : cluster_(cluster), worker_(worker), stats_(stats) {}
  std::span<const Neighbor> Neighbors(VertexId v) override {
    return cluster_.GetNeighbors(worker_, v, stats_, epoch_);
  }
  std::span<const Neighbor> Neighbors(VertexId v, EdgeType type) override {
    return cluster_.GetNeighbors(worker_, v, type, stats_, epoch_);
  }
  Status NeighborsBatch(std::span<const VertexId> vertices, EdgeType type,
                        BatchResult* out) override {
    return cluster_.GetNeighborsBatch(worker_, vertices, type, out, stats_,
                                      epoch_);
  }

  bool fallible() const override {
    return cluster_.fault_injection_enabled();
  }

  /// Registers this reader with the cluster's epoch manager; the pin both
  /// freezes the resolve epoch and blocks reclamation of the versions the
  /// scope may still read.
  void PinEpoch() override {
    pin_ = cluster_.PinEpoch();
    epoch_ = pin_.epoch();
  }
  void UnpinEpoch() override {
    pin_.Release();
    epoch_ = kEpochCurrent;
  }

  /// Epoch reads currently resolve against (kEpochCurrent when unpinned).
  uint64_t read_epoch() const { return epoch_; }

 private:
  Cluster& cluster_;
  WorkerId worker_;
  CommStats* stats_;
  EpochPin pin_;
  uint64_t epoch_ = kEpochCurrent;
};

/// \brief Ablation / comparison adapter: forwards per-vertex reads to an
/// inner source but deliberately inherits the per-vertex NeighborsBatch
/// fallback, so every read is charged as an individual RPC. Benches and
/// tests use it to quantify what batching saves.
class PerVertexNeighborSource : public NeighborSource {
 public:
  explicit PerVertexNeighborSource(NeighborSource& inner) : inner_(inner) {}
  std::span<const Neighbor> Neighbors(VertexId v) override {
    return inner_.Neighbors(v);
  }
  std::span<const Neighbor> Neighbors(VertexId v, EdgeType type) override {
    return inner_.Neighbors(v, type);
  }

 private:
  NeighborSource& inner_;
};

/// \brief TRAVERSE: samples a batch of seed vertices (or edges) from the
/// (partitioned sub)graph, optionally restricted to sources that carry
/// edges of a given type.
class TraverseSampler {
 public:
  /// \param vertices candidate seed pool (e.g. a worker's owned vertices or
  ///        all vertices of one vertex type).
  TraverseSampler(std::vector<VertexId> vertices, uint64_t seed = 1)
      : pool_(std::move(vertices)), rng_(seed) {}

  /// Uniformly samples batch_size seeds with replacement.
  std::vector<VertexId> Sample(size_t batch_size);

  /// Samples batch_size edges of the given type: pairs (src, neighbor).
  /// Seeds without such edges are re-drawn a bounded number of times.
  std::vector<std::pair<VertexId, Neighbor>> SampleEdges(
      NeighborSource& source, EdgeType type, size_t batch_size);

 private:
  std::vector<VertexId> pool_;
  Rng rng_;
};

/// \brief Per-hop sampling strategy of the NEIGHBORHOOD sampler.
enum class NeighborStrategy {
  kUniform,   ///< uniform with replacement (GraphSAGE default)
  kWeighted,  ///< proportional to edge weight
  kTopK,      ///< the k heaviest edges, deterministic
};

/// \brief Legacy flat result of the NEIGHBORHOOD sampler: hop k is a flat
/// vector of size batch * hop_nums[0] * ... * hop_nums[k]; vertices with
/// no suitable neighbor repeat themselves so shapes stay aligned.
///
/// New code should prefer NeighborhoodSampler::SampleBlock, which returns
/// the same draws as a relabeled block::SampledBlock; this struct is kept
/// as the thin flat-vector adapter for existing callers.
struct NeighborhoodSample {
  std::vector<VertexId> roots;
  std::vector<std::vector<VertexId>> hops;  ///< hops[k]: flattened hop-k ids
  /// True when at least one frontier read exhausted its retry budget and
  /// the sampler degraded (stale cached neighbors or root-repeat resample)
  /// instead of aborting. Always false on infallible sources.
  bool partial = false;
  /// Failed frontier slots that were served degraded (stale or resampled).
  uint64_t degraded_draws = 0;
};

class NeighborhoodSampler {
 public:
  NeighborhoodSampler(NeighborStrategy strategy = NeighborStrategy::kUniform,
                      uint64_t seed = 2)
      : strategy_(strategy), rng_(seed) {}

  /// Samples the context of `roots` along edges of `type` (pass
  /// kAllEdgeTypes for type-agnostic neighborhoods) and relabels it into a
  /// block::SampledBlock: deduplicated frontier with dense local ids plus
  /// one local-id CSR per hop. Each hop issues ONE NeighborsBatch over the
  /// whole frontier instead of per-vertex reads. The sampler only draws:
  /// feature rows come from block::GatherBlockFeatures (training's gather
  /// stage, or the next step of a served request). The draws are identical
  /// to Sample's for the same sampler state: both entry points share one
  /// draw loop.
  block::SampledBlock SampleBlock(NeighborSource& source,
                                  std::span<const VertexId> roots,
                                  EdgeType type,
                                  std::span<const uint32_t> hop_nums);

  /// Legacy flat-vector adapter around the same draw loop as SampleBlock.
  NeighborhoodSample Sample(NeighborSource& source,
                            std::span<const VertexId> roots, EdgeType type,
                            std::span<const uint32_t> hop_nums);

  static constexpr EdgeType kAllEdgeTypes = aligraph::kAllEdgeTypes;

  /// Vertices currently held in the stale-neighbor fallback cache (only
  /// populated while sampling through a fallible source).
  size_t stale_cache_size() const { return stale_cache_.size(); }

 private:
  /// The shared draw loop: one checked batched read + fan draws per hop,
  /// recording per-hop latency / frontier / fan-out observations through
  /// the calling thread's cached handles. Sample returns its result
  /// verbatim; SampleBlock relabels it (and SampledBlock::Build records
  /// the per-hop duplicate ratio).
  NeighborhoodSample DrawHops(NeighborSource& source,
                              std::span<const VertexId> roots, EdgeType type,
                              std::span<const uint32_t> hop_nums);

  VertexId SampleOne(std::span<const Neighbor> nbs, VertexId fallback,
                     size_t rank, Rng& rng);

  /// Draws one slot's whole fan into out[0, fan). For kUniform the index
  /// draws are batched two-pass (all RNG draws first, then the span
  /// resolutions) — consuming the RNG stream exactly as the per-draw loop
  /// would, so results are bit-identical; other strategies take the scalar
  /// SampleOne path.
  void DrawFan(std::span<const Neighbor> nbs, VertexId fallback, uint32_t fan,
               Rng& rng, VertexId* out);

  /// Graceful degradation: for every failed slot of a fallible frontier
  /// read, substitute the stale cached adjacency when one is held, else
  /// leave the span empty so SampleOne's fallback repeats the root (a
  /// resample). Counts degraded slots into the sample and, when non-null,
  /// `degraded_samples`.
  void DegradeFailedSlots(std::span<const VertexId> frontier, BatchResult* adj,
                          NeighborhoodSample* sample,
                          obs::Counter* degraded_samples);

  /// Admits successful slots of a fallible read into the stale cache
  /// (copies; capped) so later hops can survive the same vertex failing.
  void AdmitStale(std::span<const VertexId> frontier, const BatchResult& adj);

  /// Stale-cache capacity in vertices; admission stops when full (simple
  /// and deterministic — no eviction, faults are rare and runs bounded).
  static constexpr size_t kStaleCacheCap = size_t{1} << 16;

  NeighborStrategy strategy_;
  Rng rng_;
  std::unordered_map<VertexId, std::vector<Neighbor>> stale_cache_;
};

/// \brief NEGATIVE: samples noise vertices from a static unigram^power
/// distribution, optionally restricted to one vertex type, excluding the
/// positive vertex.
class NegativeSampler {
 public:
  /// Builds the noise distribution from in-degrees^power over `candidates`.
  NegativeSampler(const AttributedGraph& graph,
                  std::vector<VertexId> candidates, double power = 0.75,
                  uint64_t seed = 3);

  /// Draws `count` negatives, none equal to `positive`. Draws are issued in
  /// batched rounds through AliasTable::SampleBatch — the RNG stream is
  /// consumed exactly as the per-draw loop would, so results are
  /// bit-identical to the scalar path for the same sampler state.
  std::vector<VertexId> Sample(size_t count, VertexId positive);

 private:
  std::vector<VertexId> candidates_;
  AliasTable table_;
  AliasTable::BatchScratch scratch_;
  std::vector<size_t> draws_;
  Rng rng_;
};

/// \brief Dynamic-weight vertex sampler: weights are adjusted by a
/// registered "gradient" in a backward call, mirroring how the paper folds
/// sampler updates into backpropagation. The alias table is rebuilt lazily
/// after a configurable number of updates.
class DynamicWeightedSampler {
 public:
  DynamicWeightedSampler(std::vector<VertexId> vertices,
                         std::vector<double> initial_weights,
                         size_t rebuild_every = 1024, uint64_t seed = 4);

  /// Forward: draw one vertex proportionally to the current weights.
  VertexId Sample();

  /// Backward: apply a weight delta to a vertex (clamped at >= 0).
  void Update(VertexId v, double delta);

  double WeightOf(VertexId v) const;
  size_t updates_since_rebuild() const { return pending_updates_; }

 private:
  void MaybeRebuild(bool force);

  std::vector<VertexId> vertices_;
  std::unordered_map<VertexId, size_t> index_of_;
  std::vector<double> weights_;
  AliasTable table_;
  size_t rebuild_every_;
  size_t pending_updates_ = 0;
  Rng rng_;
};

}  // namespace aligraph

#endif  // ALIGRAPH_SAMPLING_SAMPLER_H_
