// Tests for the four built-in graph partitioners (parameterized over the
// plugin names) plus algorithm-specific properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "gen/powerlaw.h"
#include "graph/graph.h"
#include "partition/partitioner.h"
#include "proptest.h"

namespace aligraph {
namespace {

AttributedGraph MakeTestGraph() {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 2000;
  cfg.avg_degree = 8;
  cfg.seed = 5;
  auto g = gen::ChungLu(cfg);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// Two clear communities joined by one bridge; a good partitioner at p=2
// should cut few edges.
AttributedGraph MakeTwoCommunities() {
  GraphBuilder gb(GraphSchema(), /*undirected=*/true);
  const int half = 60;
  for (int i = 0; i < 2 * half; ++i) gb.AddVertex();
  Rng rng(77);
  auto dense = [&](int base) {
    for (int i = 0; i < half; ++i) {
      for (int e = 0; e < 5; ++e) {
        const int j = static_cast<int>(rng.Uniform(half));
        if (i != j) {
          EXPECT_TRUE(gb.AddEdge(base + i, base + j).ok());
        }
      }
    }
  };
  dense(0);
  dense(half);
  EXPECT_TRUE(gb.AddEdge(0, half).ok());  // single bridge
  return std::move(gb.Build()).value();
}

class PartitionerParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PartitionerParamTest, FactoryResolvesName) {
  auto p = MakePartitioner(GetParam());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->name(), GetParam());
}

TEST_P(PartitionerParamTest, AssignsEveryVertexWithinRange) {
  const AttributedGraph g = MakeTestGraph();
  auto p = std::move(MakePartitioner(GetParam())).value();
  for (uint32_t workers : {1u, 3u, 8u}) {
    auto plan = p->Partition(g, workers);
    ASSERT_TRUE(plan.ok()) << GetParam();
    ASSERT_EQ(plan->vertex_owner.size(), g.num_vertices());
    for (WorkerId w : plan->vertex_owner) EXPECT_LT(w, workers);
  }
}

TEST_P(PartitionerParamTest, SingleWorkerHasNoCut) {
  const AttributedGraph g = MakeTestGraph();
  auto p = std::move(MakePartitioner(GetParam())).value();
  auto plan = std::move(p->Partition(g, 1)).value();
  const PartitionStats stats = ComputePartitionStats(g, plan);
  EXPECT_DOUBLE_EQ(stats.edge_cut_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.vertex_balance, 1.0);
}

TEST_P(PartitionerParamTest, ReasonableVertexBalance) {
  const AttributedGraph g = MakeTestGraph();
  auto p = std::move(MakePartitioner(GetParam())).value();
  auto plan = std::move(p->Partition(g, 4)).value();
  const PartitionStats stats = ComputePartitionStats(g, plan);
  // No worker should hold more than 2.5x its fair share of vertices.
  EXPECT_LT(stats.vertex_balance, 2.5) << GetParam();
}

TEST_P(PartitionerParamTest, RejectsZeroWorkers) {
  const AttributedGraph g = MakeTestGraph();
  auto p = std::move(MakePartitioner(GetParam())).value();
  EXPECT_FALSE(p->Partition(g, 0).ok());
}

TEST_P(PartitionerParamTest, DeterministicAcrossRuns) {
  const AttributedGraph g = MakeTestGraph();
  auto p = std::move(MakePartitioner(GetParam())).value();
  auto a = std::move(p->Partition(g, 4)).value();
  auto b = std::move(p->Partition(g, 4)).value();
  EXPECT_EQ(a.vertex_owner, b.vertex_owner);
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, PartitionerParamTest,
                         ::testing::Values("edge_cut", "vertex_cut", "grid2d",
                                           "streaming", "metis", "hybrid"));

TEST(PartitionerFactoryTest, UnknownNameFails) {
  EXPECT_FALSE(MakePartitioner("nope").ok());
}

TEST(PartitionerFactoryTest, UnknownNameErrorListsEveryValidName) {
  auto result = MakePartitioner("nope");
  ASSERT_FALSE(result.ok());
  const std::string msg = result.status().ToString();
  for (const std::string& name : KnownPartitionerNames()) {
    EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

TEST(HybridSkewPartitionerTest, ReplicatesHubsOnSkewedGraph) {
  // Undirected, so the replicated hubs (chosen by out-degree) are the same
  // vertices the in-degree-proportional traffic model hammers.
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 2000;
  cfg.avg_degree = 8;
  cfg.gamma = 2.1;
  cfg.directed = false;
  cfg.seed = 5;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();
  auto plan = std::move(HybridSkewPartitioner().Partition(g, 4)).value();
  EXPECT_TRUE(plan.HasReplicas());
  const PartitionStats stats = ComputePartitionStats(g, plan);
  EXPECT_GT(stats.replication_factor, 1.0);
  EXPECT_LE(stats.replication_factor, 4.0);
  // Spreading hub reads over replicas flattens the modeled hot server.
  auto tail = std::move(EdgeCutPartitioner().Partition(g, 4)).value();
  const PartitionStats tail_stats = ComputePartitionStats(g, tail);
  EXPECT_LT(stats.hot_server_share, tail_stats.hot_server_share);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(HybridSkewPartitionerTest, RejectsHybridTail) {
  HybridSkewPartitioner::Options opts;
  opts.tail = "hybrid";
  const AttributedGraph g = MakeTestGraph();
  EXPECT_FALSE(HybridSkewPartitioner(opts).Partition(g, 4).ok());
}

// Properties of replica routing: the serving worker is always a holder of a
// copy (owner or replica), readers holding a copy serve themselves, and
// routing is deterministic.
ALIGRAPH_PROP(PlacementProps, ServingWorkerAlwaysHoldsACopy, 8) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const uint32_t workers = proptest::RandomWorkers(ctx);
  auto plan =
      std::move(HybridSkewPartitioner().Partition(g, workers)).value();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto replicas = plan.ReplicasOf(v);
    for (WorkerId from = 0; from < workers; ++from) {
      const WorkerId serving = plan.ServingWorker(v, from);
      ASSERT_LT(serving, workers);
      ASSERT_EQ(serving, plan.ServingWorker(v, from));  // deterministic
      if (plan.ServesLocally(v, from)) {
        ASSERT_EQ(serving, from);
      } else if (replicas.empty()) {
        ASSERT_EQ(serving, plan.OwnerOf(v));
      } else {
        const bool holder =
            serving == plan.OwnerOf(v) ||
            std::find(replicas.begin(), replicas.end(), serving) !=
                replicas.end();
        ASSERT_TRUE(holder);
      }
    }
  }
}

TEST(MetisPartitionerTest, BeatsHashOnCommunityGraph) {
  const AttributedGraph g = MakeTwoCommunities();
  auto metis_plan =
      std::move(MetisPartitioner().Partition(g, 2)).value();
  auto hash_plan =
      std::move(EdgeCutPartitioner().Partition(g, 2)).value();
  const double metis_cut =
      ComputePartitionStats(g, metis_plan).edge_cut_fraction;
  const double hash_cut =
      ComputePartitionStats(g, hash_plan).edge_cut_fraction;
  // Hash cuts ~50%; multilevel partitioning must do much better on a graph
  // with two planted communities.
  EXPECT_LT(metis_cut, hash_cut * 0.6);
}

TEST(StreamingPartitionerTest, BeatsHashOnCommunityGraph) {
  const AttributedGraph g = MakeTwoCommunities();
  auto stream_plan =
      std::move(StreamingPartitioner().Partition(g, 2)).value();
  auto hash_plan = std::move(EdgeCutPartitioner().Partition(g, 2)).value();
  EXPECT_LT(ComputePartitionStats(g, stream_plan).edge_cut_fraction,
            ComputePartitionStats(g, hash_plan).edge_cut_fraction);
}

TEST(VertexCutPartitionerTest, ReportsReplicationFactor) {
  const AttributedGraph g = MakeTestGraph();
  double replication = 0;
  auto plan = VertexCutPartitioner().PartitionWithReplication(g, 8,
                                                              &replication);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(replication, 1.0);
  EXPECT_LE(replication, 8.0);
}

TEST(Grid2DPartitionerTest, UsesAllWorkersOnLargeGraph) {
  const AttributedGraph g = MakeTestGraph();
  auto plan = std::move(Grid2DPartitioner().Partition(g, 6)).value();
  std::vector<int> used(6, 0);
  for (WorkerId w : plan.vertex_owner) used[w] = 1;
  EXPECT_EQ(std::count(used.begin(), used.end(), 1), 6);
}

// The route word packs what a read needs first: the owner's row, the
// owner and whether other copies exist. Each field must decode to what the
// plain arrays say, also for owner ids past 64.
TEST(PlacementTest, RouteWordDecodesOwnerRowAndReplicaFlag) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 2000;
  cfg.avg_degree = 8;
  cfg.gamma = 2.1;
  cfg.directed = false;
  cfg.seed = 5;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();
  for (const uint32_t workers : {4u, 70u}) {
    SCOPED_TRACE(workers);
    Placement plan =
        std::move(HybridSkewPartitioner().Partition(g, workers)).value();
    ASSERT_TRUE(plan.HasReplicas());
    plan.IndexRows();
    ASSERT_EQ(plan.route.size(), g.num_vertices());
    std::vector<uint32_t> next_row(workers, 0);
    WorkerId max_owner = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const WorkerId owner = plan.vertex_owner[v];
      const Placement::RouteWord word = plan.route[v];
      ASSERT_EQ(word.owner(), owner) << "v=" << v;
      ASSERT_EQ(word.row(), next_row[owner]++) << "v=" << v;
      ASSERT_EQ(word.replicated(), plan.replica_rank[v] != Placement::kNoRow)
          << "v=" << v;
      ASSERT_EQ(word.replicated(), !plan.ReplicasOf(v).empty()) << "v=" << v;
      max_owner = std::max(max_owner, owner);
    }
    EXPECT_EQ(max_owner, workers - 1);
  }
  // The fields do not bleed into each other at their limits.
  const Placement::RouteWord top = Placement::RouteWord::Pack(
      Placement::kMaxWorkers - 1, Placement::kNoRow, true);
  EXPECT_EQ(top.owner(), Placement::kMaxWorkers - 1);
  EXPECT_EQ(top.row(), Placement::kNoRow);
  EXPECT_TRUE(top.replicated());
  const Placement::RouteWord low =
      Placement::RouteWord::Pack(Placement::kMaxWorkers - 1, 0, false);
  EXPECT_EQ(low.owner(), Placement::kMaxWorkers - 1);
  EXPECT_EQ(low.row(), 0u);
  EXPECT_FALSE(low.replicated());
}

// Fails the test if anything asks it for a placement.
class MustNotRunPartitioner : public Partitioner {
 public:
  std::string name() const override { return "must_not_run"; }
  Result<Placement> Partition(const AttributedGraph&,
                              uint32_t num_workers) const override {
    ADD_FAILURE() << "partitioned for " << num_workers << " workers";
    return Status::Internal("must not run");
  }
};

TEST(PlacementTest, ClusterRejectsWorkerCountsPastTheOwnerField) {
  const AttributedGraph g = MakeTestGraph();
  for (const uint32_t workers :
       {Placement::kMaxWorkers + 1, std::numeric_limits<uint32_t>::max()}) {
    const Result<Cluster> cluster =
        Cluster::Build(g, MustNotRunPartitioner(), workers);
    ASSERT_FALSE(cluster.ok());
    EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PartitionPlanTest, EdgeAssignmentFollowsSource) {
  PartitionPlan plan;
  plan.num_workers = 2;
  plan.vertex_owner = {0, 1};
  EXPECT_EQ(plan.AssignEdge(0, 1), 0u);
  EXPECT_EQ(plan.AssignEdge(1, 0), 1u);
}

// Property: every partitioner, on arbitrary graphs and worker counts,
// (a) owns every vertex exactly once with a valid worker id, and
// (b) conserves edges — routing each edge by its source owner loses and
// duplicates nothing, so the per-worker counts sum back to m.
ALIGRAPH_PROP(PartitionerProps, OwnershipTotalAndEdgesConserved, 8) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const uint32_t workers = proptest::RandomWorkers(ctx);
  for (const char* name :
       {"edge_cut", "vertex_cut", "grid2d", "streaming", "metis", "hybrid"}) {
    auto p = std::move(MakePartitioner(name)).value();
    auto plan = p->Partition(g, workers);
    ASSERT_TRUE(plan.ok()) << name;

    // (a) The owner vector IS the ownership relation: one entry per
    // vertex, each naming a valid worker.
    ASSERT_EQ(plan->vertex_owner.size(), g.num_vertices()) << name;
    for (const WorkerId w : plan->vertex_owner) ASSERT_LT(w, workers);

    // (b) Edge conservation under source-owner routing.
    std::vector<size_t> per_worker(workers, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const Neighbor& nb : g.OutNeighbors(v)) {
        ++per_worker[plan->AssignEdge(v, nb.dst)];
      }
    }
    size_t total = 0;
    for (const size_t c : per_worker) total += c;
    // Undirected graphs store each edge in both endpoints' adjacency but
    // count it once, so source-owner routing visits it twice.
    const size_t expected =
        g.undirected() ? 2 * g.num_edges() : g.num_edges();
    EXPECT_EQ(total, expected) << name;
  }
}

TEST(PartitionStatsTest, CrossEdgesCounted) {
  GraphBuilder gb;
  gb.AddVertex();
  gb.AddVertex();
  ASSERT_TRUE(gb.AddEdge(0, 1).ok());
  ASSERT_TRUE(gb.AddEdge(1, 0).ok());
  auto g = std::move(gb.Build()).value();
  PartitionPlan plan;
  plan.num_workers = 2;
  plan.vertex_owner = {0, 1};
  const PartitionStats stats = ComputePartitionStats(g, plan);
  EXPECT_DOUBLE_EQ(stats.edge_cut_fraction, 1.0);
}

}  // namespace
}  // namespace aligraph
