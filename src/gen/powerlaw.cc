#include "gen/powerlaw.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "common/alias_table.h"
#include "common/random.h"

namespace aligraph {
namespace gen {
namespace {

// Power-law endpoint weights w_i ~ (i+1)^{-1/(gamma-1)}, shuffled so vertex
// id carries no degree information.
std::vector<double> EndpointWeights(VertexId n, double gamma, Rng& rng) {
  const double alpha = 1.0 / (gamma - 1.0);
  std::vector<double> w(n);
  for (VertexId i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 1.0, -alpha);
  }
  for (VertexId i = n; i > 1; --i) {
    std::swap(w[i - 1], w[rng.Uniform(i)]);
  }
  return w;
}

}  // namespace

Result<AttributedGraph> ChungLu(const ChungLuConfig& config) {
  if (config.num_vertices == 0) {
    return Status::InvalidArgument("num_vertices == 0");
  }
  if (config.gamma <= 2.0) {
    return Status::InvalidArgument("gamma must exceed 2");
  }
  Rng rng(config.seed);
  const VertexId n = config.num_vertices;

  const std::vector<double> out_w = EndpointWeights(n, config.gamma, rng);
  const std::vector<double> in_w =
      config.directed ? EndpointWeights(n, config.gamma, rng) : out_w;
  AliasTable out_table(out_w);
  AliasTable in_table(in_w);

  GraphBuilder gb(GraphSchema(), /*undirected=*/!config.directed);
  for (VertexId v = 0; v < n; ++v) gb.AddVertex();

  const size_t target_edges = static_cast<size_t>(
      static_cast<double>(n) * config.avg_degree + 0.5);
  gb.ReserveEdges(target_edges);
  const size_t max_attempts = target_edges * 4 + 64;
  // Endpoint pairs are drawn in chunks (AliasTable::SamplePairBatch takes
  // the stream in the scalar src, dst order). A chunk never exceeds the
  // edges still missing, and each attempt adds at most one edge, so the
  // stream is consumed exactly as a one-pair-at-a-time loop would.
  constexpr size_t kChunk = 4096;
  std::vector<size_t> srcs(kChunk), dsts(kChunk);
  AliasTable::BatchScratch scratch;
  size_t added = 0;
  size_t attempts = 0;
  while (added < target_edges && attempts < max_attempts) {
    const size_t chunk =
        std::min({kChunk, target_edges - added, max_attempts - attempts});
    AliasTable::SamplePairBatch(out_table, in_table, rng,
                                std::span<size_t>(srcs).first(chunk),
                                std::span<size_t>(dsts).first(chunk),
                                &scratch);
    attempts += chunk;
    for (size_t j = 0; j < chunk; ++j) {
      if (srcs[j] == dsts[j]) continue;
      ALIGRAPH_RETURN_NOT_OK(gb.AddEdge(static_cast<VertexId>(srcs[j]),
                                        static_cast<VertexId>(dsts[j])));
      ++added;
    }
  }
  return gb.Build();
}

Result<AttributedGraph> BarabasiAlbert(VertexId num_vertices,
                                       uint32_t edges_per_vertex,
                                       uint64_t seed) {
  if (num_vertices < edges_per_vertex + 1) {
    return Status::InvalidArgument("graph too small for edges_per_vertex");
  }
  Rng rng(seed);
  GraphBuilder gb(GraphSchema(), /*undirected=*/true);
  for (VertexId v = 0; v < num_vertices; ++v) gb.AddVertex();

  // `targets` holds one entry per edge endpoint, so uniform draws from it
  // implement preferential attachment.
  std::vector<VertexId> targets;
  targets.reserve(static_cast<size_t>(num_vertices) * edges_per_vertex * 2);

  // Seed clique over the first m+1 vertices.
  for (VertexId v = 0; v <= edges_per_vertex; ++v) {
    for (VertexId u = v + 1; u <= edges_per_vertex; ++u) {
      ALIGRAPH_RETURN_NOT_OK(gb.AddEdge(v, u));
      targets.push_back(v);
      targets.push_back(u);
    }
  }

  for (VertexId v = edges_per_vertex + 1; v < num_vertices; ++v) {
    for (uint32_t e = 0; e < edges_per_vertex; ++e) {
      const VertexId u = targets[rng.Uniform(targets.size())];
      if (u == v) {
        --e;  // retry; cannot self-attach
        continue;
      }
      ALIGRAPH_RETURN_NOT_OK(gb.AddEdge(v, u));
      targets.push_back(v);
      targets.push_back(u);
    }
  }
  return gb.Build();
}

}  // namespace gen
}  // namespace aligraph
