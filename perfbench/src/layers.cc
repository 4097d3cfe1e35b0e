#include "layers.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "algo/gnn.h"
#include "block/sampled_block.h"
#include "layout/layout.h"
#include "nn/optimizer.h"
#include "ops/hop_cache.h"

namespace perfbench {
namespace {

using namespace aligraph;

uint64_t CounterValue(obs::MetricsRegistry* reg, const char* name) {
  return reg == nullptr ? 0 : reg->GetCounter(name)->Value();
}

double Elapsed(int64_t t0) { return static_cast<double>(NowNanos() - t0); }

/// Two read paths over the same frontier lists, interleaved so each list is
/// read once by each path across a pair of rounds and the paths share cache
/// warmth evenly. Returns {ns per vertex of path a, of path b}.
std::pair<double, double> InterleavedReadNs(
    const std::vector<std::vector<VertexId>>& frontiers_a,
    const std::vector<std::vector<VertexId>>& frontiers_b,
    const std::function<uint64_t(std::span<const VertexId>)>& read_a,
    const std::function<uint64_t(std::span<const VertexId>)>& read_b) {
  constexpr int kRounds = 4;
  double ns[2] = {0, 0};
  double reads[2] = {0, 0};
  uint64_t sink = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < frontiers_a.size(); ++i) {
      const int path = static_cast<int>((i + r) % 2);
      const auto& f = path == 0 ? frontiers_a[i] : frontiers_b[i];
      const int64_t t0 = NowNanos();
      sink += path == 0 ? read_a(f) : read_b(f);
      ns[path] += Elapsed(t0);
      reads[path] += static_cast<double>(f.size());
    }
  }
  g_sink = g_sink + sink;
  return {ns[0] / std::max(reads[0], 1.0), ns[1] / std::max(reads[1], 1.0)};
}

/// Multiply-adds of one SageLayer application over `n` destination rows:
/// the mean aggregation plus the [2*in, out] linear map.
double LayerFlops(size_t n, size_t fan, size_t in, size_t out) {
  const double agg = static_cast<double>(n * fan * in);
  const double lin = 2.0 * static_cast<double>(n) * 2.0 *
                     static_cast<double>(in) * static_cast<double>(out);
  // Backward computes the input and the weight gradient (2 * lin) and
  // spreads the aggregate gradient back over the fan (agg).
  return agg + lin + 2.0 * lin + agg;
}

bool SameBlock(const block::SampledBlock& a, const block::SampledBlock& b) {
  if (!std::equal(a.globals().begin(), a.globals().end(), b.globals().begin(),
                  b.globals().end())) {
    return false;
  }
  if (a.hops().size() != b.hops().size()) return false;
  for (size_t h = 0; h < a.hops().size(); ++h) {
    if (a.hops()[h].src != b.hops()[h].src ||
        a.hops()[h].dst != b.hops()[h].dst) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ReportPipelineShares(const obs::MetricsSnapshot& before,
                          const obs::MetricsSnapshot& after, double wall_us,
                          Report* report) {
  auto delta = [&](const std::string& name) {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    const uint64_t av = a == after.counters.end() ? 0 : a->second;
    const uint64_t bv = b == before.counters.end() ? 0 : b->second;
    return static_cast<double>(av - bv);
  };
  for (const char* stage : {"sample", "gather", "compute"}) {
    const std::string s = stage;
    report->Layer("pipeline.busy_share." + s,
                  delta("pipeline.stage_busy_us." + s) / wall_us, "share");
    report->Extra("pipeline.stall_share." + s,
                  delta("pipeline.stall_us." + s) / wall_us, "share");
  }
}

void MeasureLayers(const LayerReplay& rp, Report* report) {
  const AttributedGraph& graph = *rp.graph;
  const size_t feature_dim = rp.features->dim();
  const uint32_t f1 = rp.fans[0];

  Rng rng(rp.seed);
  algo::SageLayer layer1(feature_dim, rp.dim, /*maxpool=*/false, rng);
  algo::SageLayer layer2(rp.dim, rp.dim, /*maxpool=*/false, rng,
                         /*relu=*/false);
  nn::Adam opt(0.01f);
  ops::HopEmbeddingCache row_cache(feature_dim);

  std::vector<double> draw_us, build_us, sblock_us, gather_us, fwd_us, bwd_us,
      apply_us, flops;
  double slots = 0, unique = 0, gather_bytes = 0, reused = 0;
  std::vector<std::vector<VertexId>> frontiers;  // every frontier read
  std::vector<std::vector<VertexId>> all_roots;
  bool blocks_match = true;

  for (size_t i = 0; i < rp.batches; ++i) {
    obs::ScopedSpan batch_span("replay/batch");
    const std::vector<VertexId> roots = rp.roots(i);
    const uint64_t seed = rp.sampler_seed(i);

    // The draw loop alone (Sample) and draws + relabelling (SampleBlock)
    // from same-seed samplers read the same adjacency; alternate which goes
    // first so neither always finds the other's cache lines.
    NeighborhoodSample flat;
    block::SampledBlock blk;
    auto draw = [&] {
      NeighborhoodSampler hood(NeighborStrategy::kUniform, seed);
      obs::ScopedSpan s("sampling/draw");
      const int64_t t0 = NowNanos();
      flat = hood.Sample(*rp.source, roots, NeighborhoodSampler::kAllEdgeTypes,
                         rp.fans);
      draw_us.push_back(Elapsed(t0) * 1e-3);
    };
    auto sample_block = [&] {
      NeighborhoodSampler hood(NeighborStrategy::kUniform, seed);
      obs::ScopedSpan s("sampling/sample_block");
      const int64_t t0 = NowNanos();
      blk = hood.SampleBlock(*rp.source, roots,
                             NeighborhoodSampler::kAllEdgeTypes, rp.fans);
      sblock_us.push_back(Elapsed(t0) * 1e-3);
    };
    if (i % 2 == 0) {
      draw();
      sample_block();
    } else {
      sample_block();
      draw();
    }
    block::SampledBlock built;
    {
      obs::ScopedSpan s("block/build");
      const int64_t t0 = NowNanos();
      built = block::SampledBlock::Build(roots, flat.hops, rp.fans);
      build_us.push_back(Elapsed(t0) * 1e-3);
    }
    blocks_match = blocks_match && SameBlock(blk, built);
    slots += static_cast<double>(blk.total_slots());
    unique += static_cast<double>(blk.num_vertices());
    frontiers.push_back(roots);
    frontiers.push_back(flat.hops[0]);
    all_roots.push_back(roots);

    nn::Matrix x;
    {
      obs::ScopedSpan s("block/gather");
      const uint64_t bytes0 = CounterValue(rp.registry, "block.gather_bytes");
      const uint64_t reused0 = CounterValue(rp.registry, "block.reused_rows");
      const int64_t t0 = NowNanos();
      x = block::GatherBlockFeatures(blk, *rp.features,
                                     rp.row_cache ? &row_cache : nullptr);
      gather_us.push_back(Elapsed(t0) * 1e-3);
      gather_bytes += static_cast<double>(
          CounterValue(rp.registry, "block.gather_bytes") - bytes0);
      reused += static_cast<double>(
          CounterValue(rp.registry, "block.reused_rows") - reused0);
    }

    const block::BlockHop& hop0 = blk.hops()[0];
    const block::BlockHop& hop1 = blk.hops()[1];
    algo::SageLayer::Cache c_roots, c_h1, c_top;
    nn::Matrix h2;
    {
      obs::ScopedSpan s("algo/forward");
      const int64_t t0 = NowNanos();
      const nn::Matrix h1_roots = layer1.ForwardBlock(x, hop0, &c_roots);
      const nn::Matrix h1_h1 = layer1.ForwardBlock(x, hop1, &c_h1);
      h2 = layer2.Forward(h1_roots, h1_h1, f1, &c_top);
      fwd_us.push_back(Elapsed(t0) * 1e-3);
    }
    {
      // Gradient of 0.5 * ||h2||^2: same shape and cost as the edge loss.
      obs::ScopedSpan s("algo/backward");
      const int64_t t0 = NowNanos();
      auto [d_roots, d_h1] = layer2.Backward(c_top, h2);
      layer1.Backward(c_roots, d_roots);
      layer1.Backward(c_h1, d_h1);
      bwd_us.push_back(Elapsed(t0) * 1e-3);
    }
    {
      obs::ScopedSpan s("algo/apply");
      const int64_t t0 = NowNanos();
      layer1.Apply(opt);
      layer2.Apply(opt);
      apply_us.push_back(Elapsed(t0) * 1e-3);
    }
    flops.push_back(
        LayerFlops(hop0.num_dst(), hop0.fan, feature_dim, rp.dim) +
        LayerFlops(hop1.num_dst(), hop1.fan, feature_dim, rp.dim) +
        LayerFlops(hop0.num_dst(), f1, rp.dim, rp.dim));
  }
  report->Check(blocks_match,
                "SampleBlock equals SampledBlock::Build over Sample's draws");

  const double n = static_cast<double>(std::max<size_t>(rp.batches, 1));
  report->Layer("sampling.draw_us", Median(draw_us), "us");
  report->Layer("sampling.sample_block_us", Median(sblock_us), "us");
  report->Layer("block.build_us", Median(build_us), "us");
  report->Layer("block.dedup_ratio", slots / std::max(unique, 1.0), "ratio");
  report->Layer("block.gather_us", Median(gather_us), "us");
  report->Layer("block.gather_bytes", gather_bytes / n, "bytes");
  report->Layer("block.reused_rows_share", reused / std::max(unique, 1.0),
                "share");
  report->Layer("algo.forward_us", Median(fwd_us), "us");
  report->Layer("algo.backward_us", Median(bwd_us), "us");
  report->Layer("algo.apply_us", Median(apply_us), "us");
  report->Layer("algo.flops_per_batch", Median(flops), "flop");
  double flop_total = 0, compute_us = 0;
  for (size_t i = 0; i < flops.size(); ++i) {
    flop_total += flops[i];
    compute_us += fwd_us[i] + bwd_us[i];
  }
  report->Layer("algo.gflops", flop_total / std::max(compute_us, 1e-9) * 1e-3,
                "GFLOP/s");

  // obs: the same SampleBlock calls with the registry attached vs detached,
  // alternating which side goes first. They read a LocalNeighborSource on
  // the workload's graph, whose counter handles follow obs::SetDefault: a
  // Cluster resolves its comm.* handles once, at Build, so on the cluster
  // path the detached side would still count.
  {
    obs::ScopedSpan s("obs/overhead");
    LocalNeighborSource local(graph);
    const size_t k = std::min<size_t>(all_roots.size(), 64);
    auto pass = [&]() {
      const int64_t t0 = NowNanos();
      for (size_t i = 0; i < k; ++i) {
        NeighborhoodSampler hood(NeighborStrategy::kUniform,
                                 rp.sampler_seed(i));
        const block::SampledBlock b = hood.SampleBlock(
            local, all_roots[i], NeighborhoodSampler::kAllEdgeTypes, rp.fans);
        g_sink = g_sink + b.num_vertices();
      }
      return Elapsed(t0);
    };
    std::vector<double> attached, detached;
    for (int r = 0; r < 6; ++r) {
      for (int side = 0; side < 2; ++side) {
        const bool attach = (r + side) % 2 == 0;
        obs::SetDefault(attach ? rp.registry : nullptr);
        (attach ? attached : detached).push_back(pass());
      }
    }
    obs::SetDefault(rp.registry);
    report->Layer("obs.overhead_ratio",
                  Median(attached) / std::max(Median(detached), 1.0), "ratio");
  }

  // graph: batched vs per-vertex CSR reads over the frontiers the replay
  // actually read.
  {
    obs::ScopedSpan s("graph/read_ab");
    LocalNeighborSource local(graph);
    BatchResult out;
    auto batched = [&](std::span<const VertexId> f) {
      local.NeighborsBatch(f, kAllEdgeTypes, &out);
      uint64_t sum = 0;
      for (const auto& sp : out.spans) sum += Touch(sp);
      return sum;
    };
    auto per_vertex = [&](std::span<const VertexId> f) {
      uint64_t sum = 0;
      for (VertexId v : f) sum += Touch(graph.OutNeighbors(v));
      return sum;
    };
    const auto [batch_ns, pervertex_ns] =
        InterleavedReadNs(frontiers, frontiers, batched, per_vertex);
    report->Layer("graph.batch_read_ns", batch_ns, "ns");
    report->Layer("graph.pervertex_read_ns", pervertex_ns, "ns");
    report->Layer("graph.batch_speedup",
                  pervertex_ns / std::max(batch_ns, 1e-9), "ratio");
  }

  // layout: hot-first vs identity batched reads. The hot order is the
  // replay's own visit frequency, as a traffic log would give it.
  {
    obs::ScopedSpan s("layout/hot_first_ab");
    std::vector<uint32_t> visits(graph.num_vertices(), 0);
    for (const auto& f : frontiers) {
      for (VertexId v : f) ++visits[v];
    }
    std::vector<VertexId> hot;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (visits[v] > 0) hot.push_back(v);
    }
    std::stable_sort(hot.begin(), hot.end(), [&](VertexId a, VertexId b) {
      return visits[a] > visits[b];
    });
    const layout::VertexLayout lay =
        layout::ComputeHotFirstLayout(graph, hot);
    Result<AttributedGraph> reordered = layout::ApplyLayout(graph, lay);
    if (!report->Check(reordered.ok(), "ApplyLayout(hot_first)")) return;
    const AttributedGraph& hot_graph = reordered.value();
    std::vector<std::vector<VertexId>> mapped;
    mapped.reserve(frontiers.size());
    for (const auto& f : frontiers) mapped.push_back(layout::MapToNew(lay, f));

    LocalNeighborSource identity_src(graph);
    LocalNeighborSource hot_src(hot_graph);
    BatchResult out;
    auto reader = [&out](LocalNeighborSource& src) {
      return [&out, &src](std::span<const VertexId> f) {
        src.NeighborsBatch(f, kAllEdgeTypes, &out);
        uint64_t sum = 0;
        for (const auto& sp : out.spans) sum += Touch(sp);
        return sum;
      };
    };
    // Reordering keeps every vertex's degree: compare one frontier's.
    uint64_t deg_identity = 0, deg_hot = 0;
    for (VertexId v : frontiers.back()) deg_identity += graph.OutDegree(v);
    for (VertexId v : mapped.back()) deg_hot += hot_graph.OutDegree(v);
    report->Check(deg_identity == deg_hot, "hot_first layout keeps degrees");
    const auto [identity_ns, hot_ns] = InterleavedReadNs(
        frontiers, mapped, reader(identity_src), reader(hot_src));
    report->Layer("layout.hot_first_read_ratio",
                  identity_ns / std::max(hot_ns, 1e-9), "ratio");
  }
}

}  // namespace perfbench
