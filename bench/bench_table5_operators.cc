/// \file bench_table5_operators.cc
/// \brief Table 5: AGGREGATE + COMBINE cost per mini-batch without vs. with
/// the hop-embedding materialization cache (Section 3.4).
///
/// Within a mini-batch the sampled neighbor set is shared, so the same
/// vertex's hop-1 embedding is needed many times. The naive implementation
/// recomputes it per occurrence; AliGraph's implementation computes each
/// distinct (hop, vertex) embedding once and serves the rest from the
/// cache, giving the paper's order-of-magnitude speedup.

#include <any>
#include <cstdio>
#include <vector>

#include "algo/gnn.h"
#include "bench_util.h"
#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "gen/taobao.h"
#include "nn/layers.h"
#include "ops/hop_cache.h"
#include "partition/partitioner.h"
#include "pipeline/block_pipeline.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

struct OperatorCost {
  double naive_ms = 0;
  double cached_ms = 0;
  double hit_rate = 0;  ///< hop cache lookups that hit, over all rounds
};

OperatorCost RunDataset(const AttributedGraph& graph, uint64_t seed) {
  Rng rng(seed);
  const size_t d = 32;
  const size_t fan = 10;
  const size_t batch = 512;
  const size_t shared_pool = 256;  // shared sampled neighbors per batch
  const int rounds = 5;

  // Input features.
  nn::Matrix x(graph.num_vertices(), d);
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.NextFloat();

  algo::SageLayer layer(d, d, /*maxpool=*/false, rng);

  // Computes h1 of one vertex from its own sampled neighbors.
  auto compute_h1 = [&](VertexId v, nn::Matrix* out_row) {
    nn::Matrix self(1, d);
    std::copy(x.Row(v).begin(), x.Row(v).end(), self.Row(0).begin());
    nn::Matrix neigh(fan, d);
    const auto nbs = graph.OutNeighbors(v);
    for (size_t f = 0; f < fan; ++f) {
      const VertexId u =
          nbs.empty() ? v : nbs[rng.Uniform(nbs.size())].dst;
      std::copy(x.Row(u).begin(), x.Row(u).end(), neigh.Row(f).begin());
    }
    algo::SageLayer::Cache cache;
    *out_row = layer.Forward(self, neigh, fan, &cache);
  };

  OperatorCost cost;
  size_t hits = 0;
  size_t lookups = 0;
  for (int round = 0; round < rounds; ++round) {
    // Shared neighbor pool for this mini-batch: every root's fan is drawn
    // from these vertices (the sharing FastGCN-style training uses).
    std::vector<VertexId> pool(shared_pool);
    for (auto& v : pool) {
      v = static_cast<VertexId>(rng.Uniform(graph.num_vertices()));
    }
    std::vector<std::vector<VertexId>> batch_neighbors(batch);
    for (auto& list : batch_neighbors) {
      list.resize(fan);
      for (auto& v : list) v = pool[rng.Uniform(pool.size())];
    }

    // Naive: recompute every occurrence.
    {
      Timer t;
      nn::Matrix h1;
      for (size_t b = 0; b < batch; ++b) {
        for (VertexId u : batch_neighbors[b]) {
          compute_h1(u, &h1);
        }
      }
      cost.naive_ms += t.ElapsedMillis();
    }
    // Cached: compute each distinct vertex once per mini-batch.
    {
      ops::HopEmbeddingCache cache(d);
      Timer t;
      nn::Matrix h1;
      for (size_t b = 0; b < batch; ++b) {
        for (VertexId u : batch_neighbors[b]) {
          if (!cache.Lookup(1, u).empty()) continue;
          compute_h1(u, &h1);
          cache.Insert(1, u, h1.Row(0));
        }
      }
      cost.cached_ms += t.ElapsedMillis();
      hits += cache.hits();
      lookups += cache.hits() + cache.misses();
    }
  }
  cost.naive_ms /= rounds;
  cost.cached_ms /= rounds;
  cost.hit_rate = static_cast<double>(hits) / static_cast<double>(lookups);
  return cost;
}

// ---------------------------------------------------------------------------
// Map-based vs block-based execution of the same two-hop AGGREGATE +
// COMBINE stack: the map path fetches one attribute row per SLOT (per
// occurrence, individual RPCs) into per-slot matrices; the block path
// relabels the sample, gathers one row per UNIQUE vertex through a
// coalesced per-worker batch and aggregates over dense CSR indices.

struct BlockCost {
  double map_ms = 0;
  double block_ms = 0;
  double map_modeled_ms = 0;
  double block_modeled_ms = 0;
  double map_mb = 0;
  double block_mb = 0;
};

BlockCost RunBlockVariant(const AttributedGraph& graph, uint64_t seed) {
  const size_t d = 32;
  const std::vector<uint32_t> fans{10, 5};
  const size_t batch = 256;
  const int rounds = 3;

  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 4)).value();
  const AttributeStore& store = cluster.graph().vertex_attributes();
  CommModel model;
  Rng rng(seed);
  Rng layer_rng(seed + 1);  // weights off `rng`, so the draws stay put
  algo::SageLayer layer(d, d, /*maxpool=*/false, layer_rng);

  // One attribute row, zero-padded / truncated to d.
  auto fetch_row = [&](VertexId v, CommStats* stats, std::span<float> out) {
    std::fill(out.begin(), out.end(), 0.0f);
    auto id = cluster.GetVertexAttr(/*from=*/0, v, stats);
    if (!id.ok() || *id == kNoAttr) return;
    const auto payload = store.Get(*id);
    const size_t n = payload.size() < d ? payload.size() : d;
    std::copy(payload.begin(), payload.begin() + n, out.begin());
  };

  BlockCost cost;
  // The two paths run one layer over the same draws, so their outputs
  // cancel; a non-zero sink would mean they diverged.
  float sink = 0.0f;
  for (int round = 0; round < rounds; ++round) {
    std::vector<VertexId> roots(batch);
    for (auto& v : roots) {
      v = static_cast<VertexId>(rng.Uniform(graph.num_vertices()));
    }
    const uint64_t draw_seed = rng.Next();

    // Map path: flat sample, one fetch per slot into per-slot matrices.
    {
      CommStats stats;
      DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
      NeighborhoodSampler sampler(NeighborStrategy::kUniform, draw_seed);
      Timer t;
      const NeighborhoodSample s = sampler.Sample(
          source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
      nn::Matrix hop1(s.hops[1].size(), d);
      for (size_t i = 0; i < s.hops[1].size(); ++i) {
        fetch_row(s.hops[1][i], &stats, hop1.Row(i));
      }
      nn::Matrix hop0(s.hops[0].size(), d);
      for (size_t i = 0; i < s.hops[0].size(); ++i) {
        fetch_row(s.hops[0][i], &stats, hop0.Row(i));
      }
      nn::Matrix self(roots.size(), d);
      for (size_t i = 0; i < roots.size(); ++i) {
        fetch_row(roots[i], &stats, self.Row(i));
      }
      algo::SageLayer::Cache c1, c0;
      const nn::Matrix a1 = layer.Forward(hop0, hop1, fans[1], &c1);
      const nn::Matrix a0 = layer.Forward(self, hop0, fans[0], &c0);
      cost.map_ms += t.ElapsedMillis();
      cost.map_modeled_ms += model.ModeledMillis(stats);
      const size_t slots =
          roots.size() + s.hops[0].size() + s.hops[1].size();
      cost.map_mb += static_cast<double>(slots * d * sizeof(float)) / 1e6;
      sink += a1.At(0, 0) + a0.At(0, 0);
    }
    // Block path: same draws relabeled, one coalesced gather per unique
    // vertex, CSR-indexed aggregation over the dense row matrix.
    {
      CommStats stats;
      DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
      block::ClusterFeatureSource features(cluster, /*worker=*/0, d, &stats);
      NeighborhoodSampler sampler(NeighborStrategy::kUniform, draw_seed);
      Timer t;
      const block::SampledBlock blk = sampler.SampleBlock(
          source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
      const nn::Matrix x =
          block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);
      algo::SageLayer::Cache c1, c0;
      const nn::Matrix a1 = layer.ForwardBlock(x, blk.hops()[1], &c1);
      const nn::Matrix a0 = layer.ForwardBlock(x, blk.hops()[0], &c0);
      cost.block_ms += t.ElapsedMillis();
      cost.block_modeled_ms += model.ModeledMillis(stats);
      cost.block_mb += static_cast<double>(x.size() * sizeof(float)) / 1e6;
      sink -= a1.At(0, 0) + a0.At(0, 0);
    }
  }
  cost.map_ms /= rounds;
  cost.block_ms /= rounds;
  cost.map_modeled_ms /= rounds;
  cost.block_modeled_ms /= rounds;
  cost.map_mb /= rounds;
  cost.block_mb /= rounds;
  ALIGRAPH_CHECK_EQ(sink, 0.0f);
  return cost;
}

// ---------------------------------------------------------------------------
// Sequential vs pipelined execution of the same block batch stream: both
// paths run SampleBlock -> GatherBlockFeatures -> ForwardBlock per batch
// with identical draws, but the pipelined path overlaps batch N+1's
// sampling with batch N's gather and batch N-1's aggregation through
// pipeline::BlockPipeline (depth 2). Its two lane threads start when it is
// built, before the timer, as a trainer's do once per trainer.

struct PipelineCost {
  double seq_ms = 0;        // measured wall clock, sequential
  double pipe_ms = 0;       // measured wall clock, pipelined (depth 2)
  double seq_modeled_ms = 0;   // deterministic per-stage cost model, summed
  double pipe_modeled_ms = 0;  // same costs through the pipeline schedule
  double speedup = 0;          // seq_modeled / pipe_modeled — the gated one
};

/// Completion time of the 3-stage pipeline schedule over per-batch stage
/// costs s/g/c with stage queues of `depth` slots: each stage processes
/// batches in order, a push blocks while the downstream queue is full and a
/// pop blocks while it is empty — exactly BlockPipeline's semantics (its
/// BoundedQueues), so this is the deterministic twin of the measured
/// pipelined run, less the wake-up latency of each blocked handoff.
double PipelineScheduleMs(const std::vector<double>& s,
                          const std::vector<double>& g,
                          const std::vector<double>& c, size_t depth) {
  const size_t n = s.size();
  std::vector<double> s_push(n), g_start(n), g_push(n), c_start(n), c_fin(n);
  double s_fin = 0;
  for (size_t b = 0; b < n; ++b) {
    s_fin = (b > 0 ? s_push[b - 1] : 0) + s[b];
    // The sampled-queue slot frees when the gather stage pops batch b-depth.
    s_push[b] = b >= depth ? std::max(s_fin, g_start[b - depth]) : s_fin;
    g_start[b] = std::max(s_push[b], b > 0 ? g_push[b - 1] : 0);
    const double g_fin = g_start[b] + g[b];
    g_push[b] = b >= depth ? std::max(g_fin, c_start[b - depth]) : g_fin;
    c_start[b] = std::max(g_push[b], b > 0 ? c_fin[b - 1] : 0);
    c_fin[b] = c_start[b] + c[b];
  }
  return n > 0 ? c_fin[n - 1] : 0;
}

PipelineCost RunPipelineVariant(const AttributedGraph& graph, uint64_t seed) {
  const size_t d = 32;
  const std::vector<uint32_t> fans{10, 5};
  const size_t batch = 256;
  const size_t num_batches = 24;

  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 4)).value();
  Rng rng(seed);

  // Pre-drawn roots so both paths consume the identical batch stream and
  // root drawing stays off the measured clock.
  std::vector<std::vector<VertexId>> all_roots(num_batches);
  for (auto& roots : all_roots) {
    roots.resize(batch);
    for (auto& v : roots) {
      v = static_cast<VertexId>(rng.Uniform(graph.num_vertices()));
    }
  }
  const uint64_t draw_seed = rng.Next();

  Rng layer_rng(seed + 1);  // weights off `rng`, so the draws stay put
  algo::SageLayer layer(d, d, /*maxpool=*/false, layer_rng);
  PipelineCost cost;
  // Per-batch checksums of the two paths, compared bitwise after both runs:
  // the pipeline must not change a single bit (stages stay in batch order).
  std::vector<float> seq_sums(num_batches), pipe_sums(num_batches);

  // Per-batch deterministic stage costs: sample and gather from the comm
  // model (each stage reads through its own CommStats), compute from the
  // aggregated element count. Wall clock on a loaded or single-core CI
  // runner says nothing reproducible about overlap, so the GATED speedup is
  // computed from these modeled costs run through the pipeline schedule;
  // the measured times are exported alongside, ungated.
  std::vector<double> s_cost(num_batches), g_cost(num_batches),
      c_cost(num_batches);
  const double kComputeMsPerElement = 1e-6;
  CommModel model;

  // Sequential: the exact stage sequence, back to back on one thread.
  {
    CommStats sample_stats, gather_stats;
    DistributedNeighborSource source(cluster, /*worker=*/0, &sample_stats);
    block::ClusterFeatureSource features(cluster, /*worker=*/0, d,
                                         &gather_stats);
    NeighborhoodSampler sampler(NeighborStrategy::kUniform, draw_seed);
    Timer t;
    for (size_t b = 0; b < num_batches; ++b) {
      const double s_before = model.ModeledMillis(sample_stats);
      const block::SampledBlock blk = sampler.SampleBlock(
          source, all_roots[b], NeighborhoodSampler::kAllEdgeTypes, fans);
      s_cost[b] = model.ModeledMillis(sample_stats) - s_before;
      const double g_before = model.ModeledMillis(gather_stats);
      const nn::Matrix x =
          block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);
      g_cost[b] = model.ModeledMillis(gather_stats) - g_before;
      algo::SageLayer::Cache c1, c0;
      const nn::Matrix a1 = layer.ForwardBlock(x, blk.hops()[1], &c1);
      const nn::Matrix a0 = layer.ForwardBlock(x, blk.hops()[0], &c0);
      c_cost[b] = kComputeMsPerElement * static_cast<double>(
          (blk.hops()[0].src.size() + blk.hops()[1].src.size()) * d);
      seq_sums[b] = a1.At(0, 0) + a0.At(0, 0);
    }
    cost.seq_ms = t.ElapsedMillis();
  }
  // Pipelined: same draws, same gathers, same float ops — overlapped. Each
  // stage owns its CommStats (they are written from different lanes).
  {
    CommStats sample_stats, gather_stats;
    DistributedNeighborSource source(cluster, /*worker=*/0, &sample_stats);
    block::ClusterFeatureSource features(cluster, /*worker=*/0, d,
                                         &gather_stats);
    NeighborhoodSampler sampler(NeighborStrategy::kUniform, draw_seed);
    pipeline::BlockPipeline pipe(/*depth=*/2);
    Timer t;
    pipe.RunStages(
        num_batches,
        [&](size_t b, block::SampledBlock* blk, std::any*) {
          *blk = sampler.SampleBlock(source, all_roots[b],
                                     NeighborhoodSampler::kAllEdgeTypes, fans);
        },
        [&](const block::SampledBlock& blk) {
          return block::GatherBlockFeatures(blk, features,
                                            /*row_cache=*/nullptr);
        },
        [&](size_t b, const block::SampledBlock& blk, const nn::Matrix& x,
            std::any&) {
          algo::SageLayer::Cache c1, c0;
          const nn::Matrix a1 = layer.ForwardBlock(x, blk.hops()[1], &c1);
          const nn::Matrix a0 = layer.ForwardBlock(x, blk.hops()[0], &c0);
          pipe_sums[b] = a1.At(0, 0) + a0.At(0, 0);
        });
    cost.pipe_ms = t.ElapsedMillis();
  }
  for (size_t b = 0; b < num_batches; ++b) {
    ALIGRAPH_CHECK_EQ(seq_sums[b], pipe_sums[b]);
  }
  for (size_t b = 0; b < num_batches; ++b) {
    cost.seq_modeled_ms += s_cost[b] + g_cost[b] + c_cost[b];
  }
  cost.pipe_modeled_ms =
      PipelineScheduleMs(s_cost, g_cost, c_cost, /*depth=*/2);
  cost.speedup = cost.seq_modeled_ms / cost.pipe_modeled_ms;
  return cost;
}

}  // namespace
}  // namespace aligraph

int main(int argc, char** argv) {
  using namespace aligraph;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  // Attach first: Cluster::Build and BlockPipeline resolve their registry
  // handles when they are constructed.
  bench::ObsBench obs("table5_operators", args);
  obs.report().AddMeta("experiment", "Table 5 operator cost");
  bench::Banner(
      "Table 5 — operator cost without vs. with the hop-embedding cache",
      "caching intermediate embedding vectors speeds AGGREGATE/COMBINE up "
      "by an order of magnitude (~13x)");

  obs.Table("operator_cost",
            {"dataset", "w/o cache (ms)", "with cache (ms)", "speedup"});
  {
    auto g = std::move(gen::Taobao(gen::TaobaoSmallConfig(args.scale))).value();
    const auto c = RunDataset(g, args.seed);
    obs.TableRow({"Taobao-small (syn)", bench::Fmt("%.2f", c.naive_ms),
                  bench::Fmt("%.2f", c.cached_ms),
                  bench::Fmt("%.1fx", c.naive_ms / c.cached_ms)});
    obs.report().AddMetric("taobao_small.naive_ms", c.naive_ms);
    obs.report().AddMetric("taobao_small.cached_ms", c.cached_ms);
    obs.report().AddMetric("taobao_small.speedup", c.naive_ms / c.cached_ms);
    obs.report().AddMetric("taobao_small.hop_cache_hit_rate", c.hit_rate);
  }
  {
    auto g = std::move(gen::Taobao(gen::TaobaoLargeConfig(args.scale))).value();
    const auto c = RunDataset(g, args.seed);
    obs.TableRow({"Taobao-large (syn)", bench::Fmt("%.2f", c.naive_ms),
                  bench::Fmt("%.2f", c.cached_ms),
                  bench::Fmt("%.1fx", c.naive_ms / c.cached_ms)});
    obs.report().AddMetric("taobao_large.naive_ms", c.naive_ms);
    obs.report().AddMetric("taobao_large.cached_ms", c.cached_ms);
    obs.report().AddMetric("taobao_large.speedup", c.naive_ms / c.cached_ms);
    obs.report().AddMetric("taobao_large.hop_cache_hit_rate", c.hit_rate);
  }

  // Variant: map-based (per-slot fetch + hash-keyed rows) vs block-based
  // (relabeled block + coalesced gather + dense CSR aggregation) execution
  // of the same sampled two-hop AGGREGATE + COMBINE stack.
  obs.Table("block_execution",
            {"dataset", "path", "measured (ms)", "modeled comm (ms)",
             "gathered (MB)"});
  const auto report_block = [&obs](const char* dataset, const char* key,
                                   const BlockCost& c) {
    obs.TableRow({dataset, "map", bench::Fmt("%.2f", c.map_ms),
                  bench::Fmt("%.2f", c.map_modeled_ms),
                  bench::Fmt("%.3f", c.map_mb)});
    obs.TableRow({dataset, "block", bench::Fmt("%.2f", c.block_ms),
                  bench::Fmt("%.2f", c.block_modeled_ms),
                  bench::Fmt("%.3f", c.block_mb)});
    const std::string k(key);
    obs.report().AddMetric(k + ".map_ms", c.map_ms);
    obs.report().AddMetric(k + ".block_ms", c.block_ms);
    obs.report().AddMetric(k + ".map_modeled_ms", c.map_modeled_ms);
    obs.report().AddMetric(k + ".block_modeled_ms", c.block_modeled_ms);
    obs.report().AddMetric(k + ".map_gather_mb", c.map_mb);
    obs.report().AddMetric(k + ".block_gather_mb", c.block_mb);
  };
  {
    auto g = std::move(gen::Taobao(gen::TaobaoSmallConfig(args.scale))).value();
    report_block("Taobao-small (syn)", "block_small",
                 RunBlockVariant(g, args.seed));
  }
  {
    auto g = std::move(gen::Taobao(gen::TaobaoLargeConfig(args.scale))).value();
    report_block("Taobao-large (syn)", "block_large",
                 RunBlockVariant(g, args.seed));
  }

  // Variant: the same block batch stream executed sequentially vs through
  // the 3-stage sample/gather/compute pipeline (depth 2). The checksum
  // inside asserts the pipeline did not change a single bit; the metric
  // below gates that the overlap keeps paying off.
  obs.Table("pipelined_execution",
            {"dataset", "seq (ms)", "pipe (ms)", "seq modeled (ms)",
             "pipe modeled (ms)", "modeled speedup"});
  {
    auto g = std::move(gen::Taobao(gen::TaobaoSmallConfig(args.scale))).value();
    const auto c = RunPipelineVariant(g, args.seed);
    obs.TableRow({"Taobao-small (syn)", bench::Fmt("%.2f", c.seq_ms),
                  bench::Fmt("%.2f", c.pipe_ms),
                  bench::Fmt("%.2f", c.seq_modeled_ms),
                  bench::Fmt("%.2f", c.pipe_modeled_ms),
                  bench::Fmt("%.2fx", c.speedup)});
    obs.report().AddMetric("pipeline.seq_ms", c.seq_ms);
    obs.report().AddMetric("pipeline.pipe_ms", c.pipe_ms);
    obs.report().AddMetric("pipeline.seq_modeled_ms", c.seq_modeled_ms);
    obs.report().AddMetric("pipeline.pipe_modeled_ms", c.pipe_modeled_ms);
    obs.report().AddMetric("pipeline.speedup", c.speedup);
  }
  obs.WriteReport();
  return 0;
}
