/// \file quickstart.cpp
/// \brief AliGraph in five minutes: build an attributed heterogeneous
/// graph, partition it across simulated workers, sample neighborhoods
/// through the cache-aware storage layer, train a GraphSAGE embedding and
/// evaluate it on link prediction.

#include <cstdio>

#include "aligraph.h"

using namespace aligraph;

int main() {
  // 1. Build a graph. Real deployments load from storage; here we generate
  //    a small e-commerce style AHG: users and items, four behaviour edge
  //    types, categorical attributes.
  auto graph_or = gen::Taobao(gen::TaobaoSmallConfig(0.1));
  if (!graph_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 graph_or.status().ToString().c_str());
    return 1;
  }
  AttributedGraph graph = std::move(graph_or).value();
  std::printf("graph: %s\n", graph.ToString().c_str());

  // 2. Partition it across 4 simulated workers with the streaming
  //    partitioner and build the distributed storage layer.
  StreamingPartitioner partitioner;
  ClusterBuildReport report;
  auto cluster_or = Cluster::Build(graph, partitioner, 4, &report);
  if (!cluster_or.ok()) return 1;
  Cluster cluster = std::move(cluster_or).value();
  std::printf("cluster: %s\n", report.ToString().c_str());

  // 3. Cache the out-neighbors of important vertices (Imp_k >= tau) on
  //    every worker; Theorem 2 says this is a small fraction.
  const double cache_rate = cluster.InstallImportanceCache(2, {0.2, 0.2});
  std::printf("importance cache: %.1f%% of vertices pinned\n",
              cache_rate * 100);

  // 4. Sample through the cluster: TRAVERSE seeds, NEIGHBORHOOD contexts,
  //    NEGATIVE noise — the three sampler classes of the sampling layer.
  CommStats stats;
  DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
  TraverseSampler traverse(
      std::vector<VertexId>(cluster.server(0).owned_vertices()));
  auto seeds = traverse.Sample(8);
  NeighborhoodSampler hood;
  const std::vector<uint32_t> fans{5, 3};
  auto context =
      hood.Sample(source, seeds, NeighborhoodSampler::kAllEdgeTypes, fans);
  std::printf("sampled %zu seeds -> %zu hop-1 + %zu hop-2 context vertices "
              "(%s)\n",
              seeds.size(), context.hops[0].size(), context.hops[1].size(),
              stats.ToString().c_str());

  // 5. Or sample straight into a relabeled subgraph block: the frontier is
  //    deduplicated to dense local ids and each hop becomes a local-id CSR.
  //    GatherBlockFeatures then fetches every unique vertex's attributes
  //    through the cluster in one coalesced pass — operators index dense
  //    rows, no hash maps.
  block::ClusterFeatureSource features(cluster, /*worker=*/0, /*dim=*/16,
                                       &stats);
  const block::SampledBlock blk = hood.SampleBlock(
      source, seeds, NeighborhoodSampler::kAllEdgeTypes, fans);
  const nn::Matrix x =
      block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);
  std::printf("block: %zu slots -> %zu unique vertices (dedup %.2fx), "
              "feature matrix %zux%zu\n",
              blk.total_slots(), blk.num_vertices(), blk.dedup_ratio(),
              x.rows(), x.cols());

  // 6. Train a GraphSAGE embedding and evaluate link prediction.
  auto split_or = eval::SplitLinkPrediction(graph, 0.15, /*seed=*/42);
  if (!split_or.ok()) return 1;
  auto split = std::move(split_or).value();

  algo::GnnConfig config;
  config.dim = 32;
  config.feature_dim = 32;
  config.epochs = 1;
  config.batches_per_epoch = 48;
  algo::GraphSage sage(config);
  auto embeddings_or = sage.Embed(split.train);
  if (!embeddings_or.ok()) return 1;

  const auto metrics =
      eval::EvaluateLinkPrediction(*embeddings_or, split);
  std::printf("GraphSAGE link prediction: ROC-AUC %.3f, PR-AUC %.3f, "
              "F1 %.3f\n",
              metrics.roc_auc, metrics.pr_auc, metrics.f1);
  return 0;
}
