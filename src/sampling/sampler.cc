#include "sampling/sampler.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aligraph {

namespace {

/// Stable literal span names for hop stages ("sample/hop0", ...); hops past
/// the table share the last name rather than allocating.
const char* HopSpanName(size_t hop) {
  static constexpr const char* kNames[] = {
      "sample/hop0", "sample/hop1", "sample/hop2", "sample/hop3",
      "sample/hop4", "sample/hop5", "sample/hop6", "sample/hop7+"};
  constexpr size_t kLast = sizeof(kNames) / sizeof(kNames[0]) - 1;
  return kNames[hop < kLast ? hop : kLast];
}

/// The samplers' metric handles, cached per thread by obs::DefaultHandles.
struct SamplerMetrics {
  obs::Histogram* hop_latency = nullptr;
  obs::Histogram* frontier_size = nullptr;
  obs::Histogram* fan_out = nullptr;
  obs::Counter* degraded_samples = nullptr;

  static SamplerMetrics Resolve(obs::MetricsRegistry* reg) {
    if (reg == nullptr) return {};
    return {reg->GetHistogram("sample.hop_latency_us", obs::LatencyBoundsUs()),
            reg->GetHistogram("sample.frontier_size", obs::SizeBounds()),
            reg->GetHistogram("sample.fan_out", obs::SizeBounds()),
            reg->GetCounter("degraded.samples")};
  }
};

}  // namespace

std::vector<VertexId> TraverseSampler::Sample(size_t batch_size) {
  obs::ScopedSpan span("sample/traverse");
  std::vector<VertexId> batch;
  if (pool_.empty()) return batch;
  batch.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    batch.push_back(pool_[rng_.Uniform(pool_.size())]);
  }
  return batch;
}

std::vector<std::pair<VertexId, Neighbor>> TraverseSampler::SampleEdges(
    NeighborSource& source, EdgeType type, size_t batch_size) {
  obs::ScopedSpan span("sample/traverse_edges");
  std::vector<std::pair<VertexId, Neighbor>> batch;
  if (pool_.empty()) return batch;
  batch.reserve(batch_size);
  // Draw a whole round of candidate seeds, fetch their typed adjacency in
  // ONE batched read, then fill from the non-empty spans; seeds without
  // such edges are re-drawn in the next round, a bounded number of times.
  const size_t max_tries = batch_size * 16 + 64;
  size_t tries = 0;
  std::vector<VertexId> seeds;
  BatchResult adj;
  while (batch.size() < batch_size && tries < max_tries) {
    const size_t want =
        std::min(batch_size - batch.size(), max_tries - tries);
    seeds.resize(want);
    for (VertexId& s : seeds) s = pool_[rng_.Uniform(pool_.size())];
    tries += want;
    // Failed slots (ok == 0, fallible sources only) have empty spans and
    // fall through the empty check below, so the sampler degrades by
    // re-drawing those seeds in the next round instead of aborting the
    // batch.
    const Status st = source.NeighborsBatch(seeds, type, &adj);
    if (!st.ok()) {
      if (obs::Counter* degraded =
              obs::DefaultHandles<SamplerMetrics>().degraded_samples) {
        degraded->Add(static_cast<uint64_t>(adj.FailedSlots()));
      }
    }
    for (size_t i = 0; i < seeds.size() && batch.size() < batch_size; ++i) {
      const auto nbs = adj.spans[i];
      if (nbs.empty()) continue;
      batch.emplace_back(seeds[i], nbs[rng_.Uniform(nbs.size())]);
    }
  }
  return batch;
}

VertexId NeighborhoodSampler::SampleOne(std::span<const Neighbor> nbs,
                                        VertexId fallback, size_t rank,
                                        Rng& rng) {
  if (nbs.empty()) return fallback;
  switch (strategy_) {
    case NeighborStrategy::kUniform:
      return nbs[rng.Uniform(nbs.size())].dst;
    case NeighborStrategy::kWeighted: {
      double total = 0;
      for (const Neighbor& nb : nbs) total += nb.weight;
      double r = rng.NextDouble() * total;
      for (const Neighbor& nb : nbs) {
        r -= nb.weight;
        if (r <= 0) return nb.dst;
      }
      return nbs.back().dst;
    }
    case NeighborStrategy::kTopK: {
      // Deterministic: the rank-th heaviest edge (rank wraps around).
      size_t best = 0;
      // For small fan-outs a selection scan per rank is cheap and avoids
      // allocating a sorted copy per vertex per hop.
      std::vector<std::pair<float, size_t>> order(nbs.size());
      for (size_t i = 0; i < nbs.size(); ++i) order[i] = {-nbs[i].weight, i};
      const size_t k = rank % nbs.size();
      std::nth_element(order.begin(), order.begin() + k, order.end());
      best = order[k].second;
      return nbs[best].dst;
    }
  }
  return fallback;
}

void NeighborhoodSampler::DrawFan(std::span<const Neighbor> nbs,
                                  VertexId fallback, uint32_t fan, Rng& rng,
                                  VertexId* out) {
  if (strategy_ != NeighborStrategy::kUniform || nbs.empty()) {
    for (uint32_t j = 0; j < fan; ++j) {
      out[j] = SampleOne(nbs, fallback, j, rng);
    }
    return;
  }
  // Uniform fast path: batch the index draws, then resolve the span reads
  // in a second pass, so the loads of one chunk can overlap instead of
  // each waiting behind the next RNG step. Stack chunking keeps the
  // scratch register-/L1-sized for any fan-out.
  constexpr uint32_t kChunk = 64;
  uint32_t idx[kChunk];
  for (uint32_t base = 0; base < fan; base += kChunk) {
    const uint32_t take = std::min(kChunk, fan - base);
    for (uint32_t j = 0; j < take; ++j) {
      idx[j] = static_cast<uint32_t>(rng.Uniform(nbs.size()));
    }
    for (uint32_t j = 0; j < take; ++j) {
      out[base + j] = nbs[idx[j]].dst;
    }
  }
}

void NeighborhoodSampler::AdmitStale(std::span<const VertexId> frontier,
                                     const BatchResult& adj) {
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (adj.ok[i] == 0) continue;
    if (stale_cache_.size() >= kStaleCacheCap) return;
    auto [it, inserted] = stale_cache_.try_emplace(frontier[i]);
    if (inserted || !adj.spans[i].empty()) {
      it->second.assign(adj.spans[i].begin(), adj.spans[i].end());
    }
  }
}

void NeighborhoodSampler::DegradeFailedSlots(std::span<const VertexId> frontier,
                                             BatchResult* adj,
                                             NeighborhoodSample* sample,
                                             obs::Counter* degraded_samples) {
  uint64_t degraded = 0;
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (adj->ok[i] != 0) continue;
    ++degraded;
    auto it = stale_cache_.find(frontier[i]);
    if (it != stale_cache_.end()) {
      // Serve the last successfully fetched adjacency of this vertex. Stale
      // data beats no data for a sampler: the draw stays unbiased w.r.t.
      // the cached snapshot.
      adj->spans[i] = it->second;
    }
    // No cached copy: leave the span empty — SampleOne's empty-span
    // fallback repeats the root, i.e. the slot degenerates to a resample
    // of itself, keeping hop shapes aligned with zero aborts.
  }
  if (degraded == 0) return;
  sample->partial = true;
  sample->degraded_draws += degraded;
  if (degraded_samples != nullptr) degraded_samples->Add(degraded);
}

NeighborhoodSample NeighborhoodSampler::Sample(
    NeighborSource& source, std::span<const VertexId> roots, EdgeType type,
    std::span<const uint32_t> hop_nums) {
  return DrawHops(source, roots, type, hop_nums);
}

block::SampledBlock NeighborhoodSampler::SampleBlock(
    NeighborSource& source, std::span<const VertexId> roots, EdgeType type,
    std::span<const uint32_t> hop_nums) {
  // Request root when called outside any span: draw and relabel land in
  // one trace.
  obs::ScopedSpan span("sample/block");
  const NeighborhoodSample sample = DrawHops(source, roots, type, hop_nums);
  block::SampledBlock out =
      block::SampledBlock::Build(sample.roots, sample.hops, hop_nums);
  out.set_partial(sample.partial);
  out.add_degraded_draws(sample.degraded_draws);
  return out;
}

NeighborhoodSample NeighborhoodSampler::DrawHops(
    NeighborSource& source, std::span<const VertexId> roots, EdgeType type,
    std::span<const uint32_t> hop_nums) {
  obs::ScopedSpan whole("sample/neighborhood");
  // Pin the source for the whole k-hop: concurrent update batches become
  // visible between hops of two samples, never inside one.
  struct EpochScope {
    NeighborSource& src;
    explicit EpochScope(NeighborSource& s) : src(s) { s.PinEpoch(); }
    ~EpochScope() { src.UnpinEpoch(); }
  } epoch_scope(source);
  // Per-hop instrumentation: latency histogram plus frontier / fan-out
  // size distributions. All handles are null (and skipped) when
  // observability is detached.
  const SamplerMetrics metrics = obs::DefaultHandles<SamplerMetrics>();

  NeighborhoodSample sample;
  sample.roots.assign(roots.begin(), roots.end());

  std::span<const VertexId> frontier(sample.roots);
  BatchResult adj;
  size_t hop_index = 0;
  for (uint32_t fan : hop_nums) {
    // The hop span doubles as the latency-histogram timer.
    obs::ScopedSpan hop_span(HopSpanName(hop_index), metrics.hop_latency);
    if (metrics.frontier_size != nullptr) {
      metrics.frontier_size->Record(static_cast<double>(frontier.size()));
      metrics.fan_out->Record(static_cast<double>(fan));
    }
    // One batched read for the whole frontier: the source sees the full
    // hop and can turn its remote residue into one request per worker.
    // Only fallible sources take the degradation branch.
    (void)source.NeighborsBatch(frontier, type, &adj);
    if (source.fallible()) {
      AdmitStale(frontier, adj);
      // Resolve failures BEFORE the draw loop so the draw below never
      // sees a failed slot.
      DegradeFailedSlots(frontier, &adj, &sample, metrics.degraded_samples);
    }
    std::vector<VertexId> next(frontier.size() * fan);
    for (size_t i = 0; i < frontier.size(); ++i) {
      DrawFan(adj.spans[i], frontier[i], fan, rng_, &next[i * fan]);
    }
    sample.hops.push_back(std::move(next));
    frontier = std::span<const VertexId>(sample.hops.back());
    ++hop_index;
  }
  return sample;
}

NegativeSampler::NegativeSampler(const AttributedGraph& graph,
                                 std::vector<VertexId> candidates,
                                 double power, uint64_t seed)
    : candidates_(std::move(candidates)), rng_(seed) {
  std::vector<double> weights(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const double deg = static_cast<double>(graph.InDegree(candidates_[i])) +
                       static_cast<double>(graph.OutDegree(candidates_[i]));
    weights[i] = std::pow(deg + 1.0, power);
  }
  table_.Build(weights);
}

std::vector<VertexId> NegativeSampler::Sample(size_t count,
                                              VertexId positive) {
  obs::ScopedSpan span("sample/negative");
  std::vector<VertexId> out;
  if (candidates_.empty() || table_.empty()) return out;
  out.reserve(count);
  // Round-based batched draws: each round asks the alias table for exactly
  // the number of negatives still missing (collisions with `positive` are
  // rare, so the first round almost always suffices), bounded by the same
  // total-tries guard as the old per-draw loop. SampleBatch consumes the
  // RNG stream draw-for-draw like scalar Sample, so the output is
  // bit-identical to the historical sequential path.
  const size_t max_tries = count * 16 + 64;
  size_t tries = 0;
  while (out.size() < count && tries < max_tries) {
    const size_t want = std::min(count - out.size(), max_tries - tries);
    draws_.resize(want);
    table_.SampleBatch(rng_, draws_, &scratch_);
    tries += want;
    for (const size_t d : draws_) {
      const VertexId v = candidates_[d];
      if (v == positive) continue;
      out.push_back(v);
    }
  }
  return out;
}

DynamicWeightedSampler::DynamicWeightedSampler(
    std::vector<VertexId> vertices, std::vector<double> initial_weights,
    size_t rebuild_every, uint64_t seed)
    : vertices_(std::move(vertices)),
      weights_(std::move(initial_weights)),
      rebuild_every_(rebuild_every == 0 ? 1 : rebuild_every),
      rng_(seed) {
  ALIGRAPH_CHECK_EQ(vertices_.size(), weights_.size());
  index_of_.reserve(vertices_.size());
  for (size_t i = 0; i < vertices_.size(); ++i) index_of_[vertices_[i]] = i;
  MaybeRebuild(/*force=*/true);
}

VertexId DynamicWeightedSampler::Sample() {
  ALIGRAPH_CHECK(!vertices_.empty());
  if (table_.empty()) return vertices_[rng_.Uniform(vertices_.size())];
  return vertices_[table_.Sample(rng_)];
}

void DynamicWeightedSampler::Update(VertexId v, double delta) {
  auto it = index_of_.find(v);
  if (it == index_of_.end()) return;
  weights_[it->second] = std::max(0.0, weights_[it->second] + delta);
  ++pending_updates_;
  MaybeRebuild(/*force=*/false);
}

double DynamicWeightedSampler::WeightOf(VertexId v) const {
  auto it = index_of_.find(v);
  return it == index_of_.end() ? 0.0 : weights_[it->second];
}

void DynamicWeightedSampler::MaybeRebuild(bool force) {
  if (!force && pending_updates_ < rebuild_every_) return;
  table_.Build(weights_);
  pending_updates_ = 0;
}

}  // namespace aligraph
