/// \file bench_micro.cc
/// \brief google-benchmark micro-benchmarks for the hot primitives the
/// system layers are built from: alias-table sampling, LRU access, CSR
/// neighbor scans, importance computation, the dense GEMM behind
/// AGGREGATE/COMBINE, online update batches, batched cluster reads and the
/// block relabel.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "algo/gnn.h"
#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "common/alias_table.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "gen/powerlaw.h"
#include "gen/zipf.h"
#include "graph/khop.h"
#include "layout/layout.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

const AttributedGraph& BenchGraph() {
  static const AttributedGraph* g = [] {
    gen::ChungLuConfig cfg;
    cfg.num_vertices = 50000;
    cfg.avg_degree = 10;
    cfg.seed = 42;
    return new AttributedGraph(std::move(gen::ChungLu(cfg)).value());
  }();
  return *g;
}

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_LruCacheGet(benchmark::State& state) {
  LruCache<uint64_t, uint64_t> cache(4096);
  for (uint64_t i = 0; i < 4096; ++i) cache.Put(i, i);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(key++ % 8192));
  }
}
BENCHMARK(BM_LruCacheGet);

void BM_CsrNeighborScan(benchmark::State& state) {
  const AttributedGraph& g = BenchGraph();
  Rng rng(3);
  for (auto _ : state) {
    const VertexId v = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    uint64_t acc = 0;
    for (const Neighbor& nb : g.OutNeighbors(v)) acc += nb.dst;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CsrNeighborScan);

void BM_ImportanceScores(benchmark::State& state) {
  const AttributedGraph& g = BenchGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ImportanceScores(g, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_ImportanceScores)->Arg(1)->Arg(2);

void BM_NeighborhoodSample(benchmark::State& state) {
  const AttributedGraph& g = BenchGraph();
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler;
  std::vector<VertexId> roots(64);
  std::iota(roots.begin(), roots.end(), 100);
  const std::vector<uint32_t> fans{10, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(
        source, roots, NeighborhoodSampler::kAllEdgeTypes, fans));
  }
}
BENCHMARK(BM_NeighborhoodSample);

// Same workload with the observability subsystem attached (metrics registry
// + tracer). Compare against BM_NeighborhoodSample to measure the cost of
// leaving instrumentation on; the acceptance bar is <5% overhead.
void BM_NeighborhoodSampleInstrumented(benchmark::State& state) {
  const AttributedGraph& g = BenchGraph();
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::SetDefault(&registry);
  obs::SetDefaultTracer(&tracer);
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler;
  std::vector<VertexId> roots(64);
  std::iota(roots.begin(), roots.end(), 100);
  const std::vector<uint32_t> fans{10, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(
        source, roots, NeighborhoodSampler::kAllEdgeTypes, fans));
  }
  obs::SetDefaultTracer(nullptr);
  obs::SetDefault(nullptr);
}
BENCHMARK(BM_NeighborhoodSampleInstrumented);

// Shared fixture for the block benchmarks: one sampled two-hop block over
// the bench graph plus a dense feature table.
struct BlockFixture {
  block::SampledBlock blk;
  nn::Matrix table;          // [num_vertices, d] global feature table
  std::vector<VertexId> slot_vertices;  // every slot's global id, flat
};

const BlockFixture& BenchBlock() {
  static const BlockFixture* f = [] {
    auto* fx = new BlockFixture;
    const AttributedGraph& g = BenchGraph();
    LocalNeighborSource source(g);
    NeighborhoodSampler sampler;
    std::vector<VertexId> roots(64);
    std::iota(roots.begin(), roots.end(), 100);
    const std::vector<uint32_t> fans{10, 5};
    fx->blk = sampler.SampleBlock(source, roots,
                                  NeighborhoodSampler::kAllEdgeTypes, fans);
    Rng rng(9);
    fx->table = nn::Matrix::Gaussian(g.num_vertices(), 32, 1.0f, rng);
    fx->slot_vertices.assign(roots.begin(), roots.end());
    for (const block::BlockHop& hop : fx->blk.hops()) {
      for (const uint32_t l : hop.src) {
        fx->slot_vertices.push_back(fx->blk.global_of(l));
      }
    }
    return fx;
  }();
  return *f;
}

// Feature gathering for one sampled block: per-SLOT (the legacy flat path,
// one row copy per occurrence) vs per-UNIQUE-vertex (the deduplicated
// block gather). Arg 0 = per-slot, 1 = dedup.
void BM_BlockGather(benchmark::State& state) {
  const BlockFixture& f = BenchBlock();
  block::MatrixFeatureSource source(f.table);
  const bool dedup = state.range(0) == 1;
  const std::span<const VertexId> targets =
      dedup ? f.blk.globals() : std::span<const VertexId>(f.slot_vertices);
  nn::Matrix out(targets.size(), f.table.cols());
  for (auto _ : state) {
    (void)source.Gather(targets, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size() * sizeof(float)));
}
BENCHMARK(BM_BlockGather)->Arg(0)->Arg(1);

// AGGREGATE + COMBINE over one hop: SageLayer::Forward over per-slot
// gathered self and neighbor rows vs the dense CSR-indexed ForwardBlock.
// Arg 0 = gathered, 1 = block.
void BM_BlockAggregate(benchmark::State& state) {
  const BlockFixture& f = BenchBlock();
  const block::BlockHop& hop = f.blk.hops()[1];
  Rng rng(11);
  const nn::Matrix rows =
      nn::Matrix::Gaussian(f.blk.num_vertices(), 32, 1.0f, rng);
  algo::SageLayer layer(32, 32, /*maxpool=*/false, rng);
  algo::SageLayer::Cache cache;
  const bool use_block = state.range(0) == 1;
  for (auto _ : state) {
    if (use_block) {
      benchmark::DoNotOptimize(layer.ForwardBlock(rows, hop, &cache));
    } else {
      const nn::Matrix self = block::GatherRows(rows, hop.dst);
      const nn::Matrix neighbors = block::GatherRows(rows, hop.src);
      benchmark::DoNotOptimize(
          layer.Forward(self, neighbors, hop.fan, &cache));
    }
  }
}
BENCHMARK(BM_BlockAggregate)->Arg(0)->Arg(1);

// Shared fixture for the layout benchmarks: the bench graph under a
// hot-first layout over the hub order (out+in degree descending, ties to
// the smaller id), plus one Zipf-hot visit schedule (hot rank = degree
// rank, so rank k is new id k) expressed in both id spaces. All
// names carry "Reorder" so CI can pull every layout-sensitive micro with
// one --benchmark_filter=Reorder.
struct ReorderFixture {
  AttributedGraph reordered;
  layout::VertexLayout layout;
  std::vector<VertexId> visits_old;  ///< Zipf-hot trace, original ids
  std::vector<VertexId> visits_new;  ///< the same trace, reordered ids
};

const ReorderFixture& BenchReorder() {
  static const ReorderFixture* f = [] {
    auto* fx = new ReorderFixture;
    const AttributedGraph& g = BenchGraph();
    std::vector<VertexId> hubs(g.num_vertices());
    std::iota(hubs.begin(), hubs.end(), VertexId{0});
    std::stable_sort(hubs.begin(), hubs.end(), [&g](VertexId a, VertexId b) {
      return g.OutDegree(a) + g.InDegree(a) > g.OutDegree(b) + g.InDegree(b);
    });
    fx->layout = layout::ComputeHotFirstLayout(g, hubs);
    fx->reordered = std::move(layout::ApplyLayout(g, fx->layout)).value();
    gen::ZipfConfig zcfg;
    zcfg.num_ranks = g.num_vertices();
    zcfg.exponent = 1.0;
    zcfg.seed = 17;
    gen::ZipfSampler zipf(zcfg);
    fx->visits_old.resize(1 << 16);
    for (VertexId& v : fx->visits_old) {
      v = fx->layout.ToOld(static_cast<VertexId>(zipf.Next()));
    }
    fx->visits_new = layout::MapToNew(fx->layout, fx->visits_old);
    return fx;
  }();
  return *f;
}

// Whole-adjacency scans over the Zipf-hot schedule: Arg 0 walks the
// original CSR, Arg 1 the hub-first one. The same records are read
// either way; the reordered walk keeps the hot adjacency on far fewer
// distinct cache lines.
void BM_ReorderCsrScanZipfHot(benchmark::State& state) {
  const ReorderFixture& f = BenchReorder();
  const bool reordered = state.range(0) == 1;
  const AttributedGraph& g = reordered ? f.reordered : BenchGraph();
  const std::vector<VertexId>& visits =
      reordered ? f.visits_new : f.visits_old;
  size_t i = 0;
  for (auto _ : state) {
    const VertexId v = visits[i++ & (visits.size() - 1)];
    uint64_t acc = 0;
    for (const Neighbor& nb : g.OutNeighbors(v)) acc += nb.dst;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ReorderCsrScanZipfHot)->Arg(0)->Arg(1);

// Batched NeighborsBatch vs one Neighbors call per vertex, over the same
// Zipf-hot schedule on the reordered CSR.
// Arg 0 = per-vertex, 1 = batched.
void BM_ReorderBatchRead(benchmark::State& state) {
  const ReorderFixture& f = BenchReorder();
  LocalNeighborSource source(f.reordered);
  const bool batched = state.range(0) == 1;
  constexpr size_t kBatch = 512;
  BatchResult batch;
  size_t i = 0;
  for (auto _ : state) {
    // i advances in kBatch strides over a power-of-two schedule, so the
    // masked start is always kBatch-aligned and the window stays in range.
    const std::span<const VertexId> window(
        f.visits_new.data() + (i & (f.visits_new.size() - 1)), kBatch);
    i += kBatch;
    // Both arms walk the full adjacency payload, so the batch arm pays for
    // the same memory traffic and saves only the per-vertex dispatch.
    uint64_t acc = 0;
    if (batched) {
      source.NeighborsBatch(window, kAllEdgeTypes, &batch);
      for (const std::span<const Neighbor>& span : batch.spans) {
        for (const Neighbor& nb : span) acc += nb.dst;
      }
    } else {
      for (const VertexId v : window) {
        for (const Neighbor& nb : source.Neighbors(v)) acc += nb.dst;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ReorderBatchRead)->Arg(0)->Arg(1);

// Scalar Sample loop vs the two-pass SampleBatch on a table too big for
// cache; the batch path prefetches the accept/alias rows kAhead draws out.
// Arg 0 = scalar loop, 1 = batched.
void BM_ReorderAliasSampleBatch(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> weights(1 << 20);
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  AliasTable table(weights);
  const bool batched = state.range(0) == 1;
  std::vector<size_t> out(512);
  AliasTable::BatchScratch scratch;
  for (auto _ : state) {
    if (batched) {
      table.SampleBatch(rng, out, &scratch);
    } else {
      for (size_t& o : out) o = table.Sample(rng);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_ReorderAliasSampleBatch)->Arg(0)->Arg(1);

// [m,k] * [k,n]: the square 64 and 128 products, then the two GEMM shapes
// of a serve request's forward pass (the layer-1 hop-1 rows, 40x32 * 32x32,
// and layer 2's four roots, 4x64 * 64x32).
void BM_MatMul(benchmark::State& state) {
  Rng rng(7);
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  nn::Matrix a = nn::Matrix::Gaussian(m, k, 1.0f, rng);
  nn::Matrix b = nn::Matrix::Gaussian(k, n, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
}
BENCHMARK(BM_MatMul)
    ->ArgNames({"m", "k", "n"})
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({40, 32, 32})
    ->Args({4, 64, 32});

// One ApplyUpdateBatch after Arg(0) earlier batches on a 4-worker hybrid
// cluster. Each batch has 256 edges: 128 inserts with Zipf(1.0)-hot
// sources (low ChungLu ids are the hubs) and removes of the previous
// batch's 128 inserts, so adjacency sizes stay flat and only the update
// history differs between the two args. The iteration count is fixed, so
// timing adds at most 20 batches of history; CI gates the 200 / 20 ratio.
void BM_ApplyUpdateBatch(benchmark::State& state) {
  const AttributedGraph& g = BenchGraph();
  auto partitioner = std::move(MakePartitioner("hybrid")).value();
  Cluster cluster = std::move(Cluster::Build(g, *partitioner, 4)).value();
  gen::ZipfConfig zcfg;
  zcfg.num_ranks = g.num_vertices();
  zcfg.exponent = 1.0;
  zcfg.seed = 7;
  gen::ZipfSampler zipf(zcfg);
  Rng rng(11);
  const size_t history = static_cast<size_t>(state.range(0));
  std::vector<std::vector<EdgeUpdate>> batches(
      history + static_cast<size_t>(state.max_iterations));
  std::vector<EdgeUpdate> inserted;  // the previous batch's inserts
  for (std::vector<EdgeUpdate>& batch : batches) {
    for (EdgeUpdate u : inserted) {
      u.kind = EdgeUpdate::Kind::kRemove;
      batch.push_back(u);
    }
    inserted.clear();
    for (int i = 0; i < 128; ++i) {
      EdgeUpdate u;
      u.src = static_cast<VertexId>(zipf.Next());
      u.dst = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
      inserted.push_back(u);
      batch.push_back(u);
    }
  }
  size_t b = 0;
  for (; b < history; ++b) (void)cluster.ApplyUpdateBatch(batches[b]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.ApplyUpdateBatch(batches[b++]));
  }
}
BENCHMARK(BM_ApplyUpdateBatch)
    ->Arg(20)
    ->Arg(200)
    ->Iterations(20)
    ->Unit(benchmark::kMicrosecond);

// Frontiers a cold run cycles through: their reads touch far more lines
// than a core's L2 holds, so a frontier's lines are gone from it by its
// next turn. A warm run cycles the first kWarmFrontiers, whose lines stay.
constexpr int kColdFrontiers = 1024;
constexpr int kWarmFrontiers = 16;

// khop_cluster's read shape: a 4-worker hybrid cluster with the importance
// cache at tau = 10 on 1- and 2-hop importance, over a 500k-vertex ChungLu
// graph, and the frontiers (about 500 unique vertices each) of
// kColdFrontiers fixed two-hop blocks of 30 random roots, fans 10/5.
struct ClusterReadFixture {
  std::unique_ptr<AttributedGraph> graph;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::vector<VertexId>> frontiers;
};

const ClusterReadFixture& BenchClusterRead() {
  static const ClusterReadFixture* f = [] {
    auto* fx = new ClusterReadFixture;
    gen::ChungLuConfig cfg;
    cfg.num_vertices = 500000;
    cfg.avg_degree = 8;
    cfg.seed = 5;
    fx->graph =
        std::make_unique<AttributedGraph>(std::move(gen::ChungLu(cfg)).value());
    auto partitioner = std::move(MakePartitioner("hybrid")).value();
    fx->cluster = std::make_unique<Cluster>(
        std::move(Cluster::Build(*fx->graph, *partitioner, 4)).value());
    fx->cluster->InstallImportanceCache(2, {10.0, 10.0});
    LocalNeighborSource source(*fx->graph);
    NeighborhoodSampler sampler(NeighborStrategy::kUniform, 3);
    Rng rng(17);
    const std::vector<uint32_t> fans{10, 5};
    for (int b = 0; b < kColdFrontiers; ++b) {
      std::vector<VertexId> roots(30);
      for (VertexId& r : roots) {
        r = static_cast<VertexId>(rng.Uniform(cfg.num_vertices));
      }
      const block::SampledBlock blk = sampler.SampleBlock(
          source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
      fx->frontiers.emplace_back(blk.globals().begin(), blk.globals().end());
    }
    return fx;
  }();
  return *f;
}

// One batched read of each frontier in turn, as khop_cluster's sample and
// gather stages issue it. Arg `attrs` 0 = neighbors (NeighborsBatch), 1 =
// attributes (a 32-column Gather; the graph has no attribute payloads, so
// both sources only resolve attribute ids). Arg `frontiers` is how many
// frontiers the run cycles: kWarmFrontiers or kColdFrontiers.
void RunBatchRead(benchmark::State& state, NeighborSource& neighbors,
                  block::FeatureSource& features) {
  const ClusterReadFixture& f = BenchClusterRead();
  const bool attrs = state.range(0) == 1;
  const size_t cycled = static_cast<size_t>(state.range(1));
  std::vector<nn::Matrix> xs;
  for (size_t b = 0; attrs && b < cycled; ++b) {
    xs.emplace_back(f.frontiers[b].size(), features.dim());
  }
  BatchResult out;
  size_t k = 0;
  int64_t items = 0;
  for (auto _ : state) {
    const size_t b = k++ % cycled;
    const std::vector<VertexId>& frontier = f.frontiers[b];
    if (attrs) {
      benchmark::DoNotOptimize(features.Gather(frontier, &xs[b]));
    } else {
      benchmark::DoNotOptimize(
          neighbors.NeighborsBatch(frontier, kAllEdgeTypes, &out));
    }
    items += static_cast<int64_t>(frontier.size());
  }
  state.SetItemsProcessed(items);
  state.counters["frontier"] = static_cast<double>(items) /
                               static_cast<double>(state.iterations());
}

// Through the cluster from worker 0 (local, replica, cached and remote
// slots). Read against BM_CsrBatchRead for the cluster / CSR ratio.
void BM_ClusterBatchRead(benchmark::State& state) {
  const ClusterReadFixture& f = BenchClusterRead();
  CommStats stats;
  DistributedNeighborSource neighbors(*f.cluster, /*worker=*/0, &stats);
  block::ClusterFeatureSource features(*f.cluster, /*worker=*/0, 32, &stats);
  RunBatchRead(state, neighbors, features);
}
BENCHMARK(BM_ClusterBatchRead)
    ->ArgNames({"attrs", "frontiers"})
    ->ArgsProduct({{0, 1}, {kWarmFrontiers, kColdFrontiers}})
    ->Unit(benchmark::kMicrosecond);

// The same reads on the graph's own CSR.
void BM_CsrBatchRead(benchmark::State& state) {
  const ClusterReadFixture& f = BenchClusterRead();
  LocalNeighborSource neighbors(*f.graph);
  block::GraphFeatureSource features(*f.graph, 32);
  RunBatchRead(state, neighbors, features);
}
BENCHMARK(BM_CsrBatchRead)
    ->ArgNames({"attrs", "frontiers"})
    ->ArgsProduct({{0, 1}, {kWarmFrontiers, kColdFrontiers}})
    ->Unit(benchmark::kMicrosecond);

// SampledBlock::Build alone, on khop_cluster-shaped samples (16 roots, fans
// 10/5) drawn once from the cluster fixture's graph. Arg `samples` is how
// many distinct samples the run cycles: 1 repeats one sample, so every
// relabel probe sequence repeats and its branches are learned; 64 cycles
// samples whose sequences differ. The gap between the two is what the
// relabel's data-dependent branches cost.
void BM_BlockBuild(benchmark::State& state) {
  const ClusterReadFixture& f = BenchClusterRead();
  const size_t cycled = static_cast<size_t>(state.range(0));
  LocalNeighborSource source(*f.graph);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, 23);
  Rng rng(29);
  const std::vector<uint32_t> fans{10, 5};
  std::vector<NeighborhoodSample> samples;
  for (size_t b = 0; b < cycled; ++b) {
    std::vector<VertexId> roots(16);
    for (VertexId& r : roots) {
      r = static_cast<VertexId>(rng.Uniform(f.graph->num_vertices()));
    }
    samples.push_back(
        sampler.Sample(source, roots, NeighborhoodSampler::kAllEdgeTypes,
                       fans));
  }
  size_t k = 0;
  int64_t slots = 0;
  for (auto _ : state) {
    const NeighborhoodSample& s = samples[k++ % cycled];
    benchmark::DoNotOptimize(block::SampledBlock::Build(s.roots, s.hops, fans));
    slots += static_cast<int64_t>(s.roots.size() + s.hops[0].size() +
                                  s.hops[1].size());
  }
  state.SetItemsProcessed(slots);
}
BENCHMARK(BM_BlockBuild)
    ->ArgName("samples")
    ->Arg(1)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aligraph
