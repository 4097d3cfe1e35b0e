/// \file aligraph.h
/// \brief Umbrella header: includes the whole public AliGraph API.
///
/// Fine-grained targets should include the specific module headers; this
/// header is a convenience for applications and experiments.

#ifndef ALIGRAPH_ALIGRAPH_H_
#define ALIGRAPH_ALIGRAPH_H_

// Common utilities.
#include "common/alias_table.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/timer.h"

// Graph data model.
#include "graph/attributes.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/khop.h"
#include "graph/schema.h"
#include "graph/types.h"

// System layers: partitioning, distributed runtime, storage, sampling,
// subgraph blocks, the hop-embedding cache.
#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "block/scaled_csr.h"
#include "cluster/cluster.h"
#include "cluster/comm_model.h"
#include "cluster/graph_server.h"
#include "ops/hop_cache.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"
#include "storage/importance.h"
#include "storage/neighbor_cache.h"

// Training substrate.
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/skipgram.h"
#include "nn/walks.h"

// Algorithm layer.
#include "algo/bayesian.h"
#include "algo/classic.h"
#include "algo/embedding_algorithm.h"
#include "algo/evolving.h"
#include "algo/gatne.h"
#include "algo/gnn.h"
#include "algo/hep.h"
#include "algo/heterogeneous.h"
#include "algo/hierarchical.h"
#include "algo/mixture.h"

// Synthetic datasets and evaluation.
#include "eval/link_prediction.h"
#include "eval/metrics.h"
#include "gen/dynamic_gen.h"
#include "gen/powerlaw.h"
#include "gen/taobao.h"

#endif  // ALIGRAPH_ALIGRAPH_H_
