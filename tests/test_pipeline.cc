// Tests for the 3-stage block pipeline: BoundedQueue handoff semantics,
// bit-identity of every depth (0 = inline, >= 1 = laned) against a
// hand-written sequential stage loop (direct BlockPipeline differential)
// and of end-to-end GraphSAGE training across depths, a slow-stage stress
// run that forces the queue-full and queue-empty edges (the TSan target),
// and the exported metrics / per-batch causal trace trees.

#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "algo/embedding_algorithm.h"
#include "algo/gnn.h"
#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "gen/taobao.h"
#include "graph/graph.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "ops/hop_cache.h"
#include "pipeline/block_pipeline.h"
#include "pipeline/bounded_queue.h"
#include "proptest.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

::testing::AssertionResult BitEqual(const nn::Matrix& a,
                                    const nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (a.empty()) return ::testing::AssertionSuccess();
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "matrices differ bitwise";
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// BoundedQueue semantics.

TEST(BoundedQueueTest, FifoOrderAndCloseDrains) {
  pipeline::BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  q.Close();
  EXPECT_FALSE(q.Push(4));  // rejected after Close
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 3);  // queued items stay poppable after Close...
  EXPECT_FALSE(q.Pop(&v));  // ...then the queue reports drained
}

TEST(BoundedQueueTest, PushBlocksAtCapacityUntilPop) {
  pipeline::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(3));  // must block: queue is at capacity
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());  // still blocked
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 3);
}

TEST(BoundedQueueTest, CloseWakesBlockedWaiters) {
  pipeline::BoundedQueue<int> q(1);
  std::thread consumer([&] {
    int v = 0;
    EXPECT_FALSE(q.Pop(&v));  // blocked on empty, then woken by Close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

// Short and long delays on either side, so each side now and then finds
// the queue full or empty and blocks on the other.
void RandomDelay(Rng& rng) {
  switch (rng.Uniform(16)) {
    case 0:
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      break;
    case 1:
    case 2:
      std::this_thread::sleep_for(std::chrono::microseconds(5));
      break;
    default:
      break;
  }
}

// Producers push (producer, seq) pairs in seq order with random delays,
// consumers pop with random delays. Every item arrives exactly once, and
// each consumer sees every producer's items in increasing seq order.
void StressQueue(size_t producers, size_t consumers, size_t capacity) {
  constexpr uint32_t kItems = 1500;
  obs::MetricsRegistry registry;
  obs::Counter* push_stall = registry.GetCounter("push_stall_us");
  obs::Counter* pop_stall = registry.GetCounter("pop_stall_us");
  pipeline::BoundedQueue<std::pair<uint32_t, uint32_t>> q(
      capacity, /*depth=*/nullptr, push_stall, pop_stall);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> seen(consumers);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(1000 + c);
      std::pair<uint32_t, uint32_t> item;
      while (q.Pop(&item)) {
        seen[c].push_back(item);
        RandomDelay(rng);
      }
    });
  }
  std::vector<std::thread> pushers;
  for (size_t p = 0; p < producers; ++p) {
    pushers.emplace_back([&, p] {
      Rng rng(p + 1);
      for (uint32_t s = 0; s < kItems; ++s) {
        EXPECT_TRUE(q.Push({static_cast<uint32_t>(p), s}));
        RandomDelay(rng);
      }
    });
  }
  for (std::thread& t : pushers) t.join();
  q.Close();
  for (std::thread& t : threads) t.join();

  std::vector<std::vector<uint32_t>> count(
      producers, std::vector<uint32_t>(kItems, 0));
  for (const auto& items : seen) {
    std::vector<int64_t> last(producers, -1);
    for (const auto& [p, s] : items) {
      ASSERT_LT(p, producers);
      ASSERT_LT(s, kItems);
      EXPECT_GT(static_cast<int64_t>(s), last[p]) << "FIFO per producer";
      last[p] = s;
      ++count[p][s];
    }
  }
  for (size_t p = 0; p < producers; ++p) {
    for (uint32_t s = 0; s < kItems; ++s) {
      EXPECT_EQ(count[p][s], 1u) << "producer " << p << " seq " << s;
    }
  }
  // Both sides slept for 200 us now and then, so each was forced to wait on
  // the other at least once.
  EXPECT_GT(push_stall->Value(), 0u);
  EXPECT_GT(pop_stall->Value(), 0u);
}

TEST(BoundedQueueTest, StressOneToOne) { StressQueue(1, 1, 1); }

TEST(BoundedQueueTest, StressTwoToTwo) { StressQueue(2, 2, 2); }

TEST(BoundedQueueTest, CloseWakesBlockedPushAndPopAndChargesTheirWait) {
  // Closed at once (the consumer may not have blocked yet) and after 5 ms
  // (it has): either way Pop returns false, and a 5 ms wait is charged.
  constexpr auto kWait = std::chrono::milliseconds(5);
  for (const auto wait : {std::chrono::microseconds(0),
                          std::chrono::microseconds(kWait)}) {
    obs::MetricsRegistry registry;
    obs::Counter* pop_stall = registry.GetCounter("pop_stall_us");
    pipeline::BoundedQueue<int> q(1, nullptr, nullptr, pop_stall);
    std::atomic<bool> popping{false};
    std::thread consumer([&] {
      int v = 0;
      popping.store(true);
      EXPECT_FALSE(q.Pop(&v));
    });
    while (!popping.load()) std::this_thread::yield();
    std::this_thread::sleep_for(wait);
    q.Close();
    consumer.join();
    if (wait.count() > 0) {
      EXPECT_GE(pop_stall->Value(),
                static_cast<uint64_t>(wait.count()) / 2);
    }
  }
  // Same for a producer blocked on a full queue.
  for (const auto wait : {std::chrono::microseconds(0),
                          std::chrono::microseconds(kWait)}) {
    obs::MetricsRegistry registry;
    obs::Counter* push_stall = registry.GetCounter("push_stall_us");
    pipeline::BoundedQueue<int> q(1, nullptr, push_stall, nullptr);
    ASSERT_TRUE(q.Push(1));
    std::atomic<bool> pushing{false};
    std::thread producer([&] {
      pushing.store(true);
      EXPECT_FALSE(q.Push(2));
    });
    while (!pushing.load()) std::this_thread::yield();
    std::this_thread::sleep_for(wait);
    q.Close();
    producer.join();
    if (wait.count() > 0) {
      EXPECT_GE(push_stall->Value(),
                static_cast<uint64_t>(wait.count()) / 2);
    }
    int v = 0;
    EXPECT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, 1);
  }
}

// Holds the queue's mutex at a known point: the first move-construction a
// gated thread makes waits for `release`. Push moves its argument into the
// deque, and Pop moves the front item out, both under the lock.
thread_local bool t_gated = false;

struct Gate {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
};

struct Gated {
  Gate* gate = nullptr;

  Gated() = default;
  explicit Gated(Gate* g) : gate(g) {}
  Gated(Gated&& other) noexcept : gate(other.gate) {
    if (t_gated && gate != nullptr && !gate->entered.exchange(true)) {
      while (!gate->release.load()) std::this_thread::yield();
    }
  }
  Gated& operator=(Gated&&) = default;
};

// A side that reached the queue while a peer held the lock to take its last
// item or slot finds it not ready once it gets the lock. Its wait after
// that is stall time too.
TEST(BoundedQueueTest, LosingTheRaceThenParkingIsCharged) {
  constexpr auto kHold = std::chrono::milliseconds(20);
  {
    obs::MetricsRegistry registry;
    obs::Counter* pop_stall = registry.GetCounter("pop_stall_us");
    pipeline::BoundedQueue<Gated> q(2, nullptr, nullptr, pop_stall);
    Gate gate;
    ASSERT_TRUE(q.Push(Gated(&gate)));
    // A takes the lock and holds it while moving the only item out; B waits
    // for the lock, finds the queue empty and blocks.
    std::thread a([&] {
      t_gated = true;
      Gated v;
      EXPECT_TRUE(q.Pop(&v));
    });
    while (!gate.entered.load()) std::this_thread::yield();
    std::thread b([&] {
      Gated v;
      EXPECT_TRUE(q.Pop(&v));
    });
    std::this_thread::sleep_for(kHold);
    gate.release.store(true);
    a.join();
    std::this_thread::sleep_for(kHold);
    ASSERT_TRUE(q.Push(Gated()));
    b.join();
    EXPECT_GT(pop_stall->Value(), 0u);
  }
  {
    obs::MetricsRegistry registry;
    obs::Counter* push_stall = registry.GetCounter("push_stall_us");
    pipeline::BoundedQueue<Gated> q(1, nullptr, push_stall, nullptr);
    Gate gate;
    // A takes the lock and holds it while moving its item in; B waits for
    // the lock, finds the queue full and blocks.
    std::thread a([&] {
      t_gated = true;
      EXPECT_TRUE(q.Push(Gated(&gate)));
    });
    while (!gate.entered.load()) std::this_thread::yield();
    std::thread b([&] { EXPECT_TRUE(q.Push(Gated())); });
    std::this_thread::sleep_for(kHold);
    gate.release.store(true);
    a.join();
    std::this_thread::sleep_for(kHold);
    Gated v;
    ASSERT_TRUE(q.Pop(&v));
    b.join();
    EXPECT_GT(push_stall->Value(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Direct BlockPipeline differential: the pipelined run must produce the
// exact blocks and gathered feature matrices of the sequential stage
// sequence — across queue depths and batch counts, including an
// empty-roots batch (which the compute stage must see untouched).

struct BatchCapture {
  std::vector<VertexId> globals;
  nn::Matrix features;
};

std::vector<BatchCapture> RunSequential(
    const AttributedGraph& graph, const nn::Matrix& features,
    uint64_t draw_seed, const std::vector<std::vector<VertexId>>& roots,
    std::span<const uint32_t> fans, bool use_row_cache) {
  LocalNeighborSource source(graph);
  block::MatrixFeatureSource feature_source(features);
  ops::HopEmbeddingCache cache(features.cols());
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, draw_seed);
  std::vector<BatchCapture> out(roots.size());
  for (size_t b = 0; b < roots.size(); ++b) {
    const block::SampledBlock blk = sampler.SampleBlock(
        source, roots[b], NeighborhoodSampler::kAllEdgeTypes, fans);
    out[b].globals.assign(blk.globals().begin(), blk.globals().end());
    out[b].features = block::GatherBlockFeatures(
        blk, feature_source, use_row_cache ? &cache : nullptr);
  }
  return out;
}

std::vector<BatchCapture> RunPipelined(
    const AttributedGraph& graph, const nn::Matrix& features,
    uint64_t draw_seed, const std::vector<std::vector<VertexId>>& roots,
    std::span<const uint32_t> fans, bool use_row_cache, size_t depth) {
  LocalNeighborSource source(graph);
  block::MatrixFeatureSource feature_source(features);
  ops::HopEmbeddingCache cache(features.cols());
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, draw_seed);
  std::vector<BatchCapture> out(roots.size());
  pipeline::BlockPipeline pipe(depth);
  pipe.RunStages(
      roots.size(),
      [&](size_t b, block::SampledBlock* blk, std::any*) {
        *blk = sampler.SampleBlock(source, roots[b],
                                   NeighborhoodSampler::kAllEdgeTypes, fans);
      },
      [&](const block::SampledBlock& blk) {
        return block::GatherBlockFeatures(blk, feature_source,
                                          use_row_cache ? &cache : nullptr);
      },
      [&](size_t b, const block::SampledBlock& blk, const nn::Matrix& x,
          std::any&) {
        out[b].globals.assign(blk.globals().begin(), blk.globals().end());
        out[b].features = x;
      });
  return out;
}

ALIGRAPH_PROP(BlockPipelineProps, MatchesSequentialAcrossDepths, 6) {
  const AttributedGraph graph = proptest::RandomGraph(ctx);
  const size_t d = 1 + ctx.rng.Uniform(16);
  nn::Matrix features(graph.num_vertices(), d);
  for (size_t i = 0; i < features.size(); ++i) {
    features.data()[i] = ctx.rng.NextFloat();
  }
  const std::vector<uint32_t> fans{
      static_cast<uint32_t>(1 + ctx.rng.Uniform(4)),
      static_cast<uint32_t>(1 + ctx.rng.Uniform(3))};
  const size_t num_batches = 1 + ctx.rng.Uniform(9);
  std::vector<std::vector<VertexId>> roots(num_batches);
  for (auto& r : roots) {
    r.resize(1 + ctx.rng.Uniform(12));
    for (auto& v : r) {
      v = static_cast<VertexId>(ctx.rng.Uniform(graph.num_vertices()));
    }
  }
  // One batch with no roots (a training draw that hit only sink vertices):
  // every stage must still see it, in order.
  if (num_batches > 2) roots[num_batches / 2].clear();

  const uint64_t draw_seed = ctx.rng.Next();
  const bool use_row_cache = ctx.rng.Uniform(2) == 0;
  const auto seq = RunSequential(graph, features, draw_seed, roots, fans,
                                 use_row_cache);
  for (const size_t depth : {size_t{0}, size_t{1}, size_t{2}, size_t{3}}) {
    const auto piped = RunPipelined(graph, features, draw_seed, roots, fans,
                                    use_row_cache, depth);
    ASSERT_EQ(piped.size(), seq.size());
    for (size_t b = 0; b < seq.size(); ++b) {
      EXPECT_EQ(piped[b].globals, seq[b].globals) << "batch " << b;
      EXPECT_TRUE(BitEqual(piped[b].features, seq[b].features))
          << "batch " << b << " depth " << depth;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end GraphSAGE: pipeline_depth switches training + inference
// between the inline schedule (0) and the laned one; embeddings must stay
// bit-identical across depths, with weight updates and the feature-row
// cache in the loop.

TEST(BlockPipelineTest, GraphSageBitIdenticalAcrossPipelineDepths) {
  auto graph = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  algo::GnnConfig config;
  config.dim = 8;
  config.feature_dim = 8;
  config.fanout1 = 3;
  config.fanout2 = 2;
  config.epochs = 1;
  config.batch_size = 8;
  config.batches_per_epoch = 3;
  config.seed = 77;

  // One trainer reused: two TrainEpochs calls, then Infer, all on the
  // lanes it built once.
  const nn::Matrix features =
      algo::BuildFeatureMatrix(graph, config.feature_dim);
  const auto reused = [&] {
    algo::SageTrainer trainer(config, features.cols());
    trainer.TrainEpochs(graph, features, 1);
    trainer.TrainEpochs(graph, features, 1);
    return trainer.Infer(graph, features);
  };

  config.pipeline_depth = 0;
  const nn::Matrix inline_run =
      std::move(algo::GraphSage(config).Embed(graph)).value();
  const nn::Matrix inline_reused = reused();
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    config.pipeline_depth = depth;
    // A live registry proves training and inference really went through
    // the pipeline at this depth.
    obs::MetricsRegistry registry;
    obs::SetDefault(&registry);
    const nn::Matrix piped =
        std::move(algo::GraphSage(config).Embed(graph)).value();
    const nn::Matrix piped_reused = reused();
    obs::SetDefault(nullptr);
    EXPECT_TRUE(BitEqual(inline_run, piped)) << "pipeline_depth " << depth;
    EXPECT_TRUE(BitEqual(inline_reused, piped_reused))
        << "reused trainer, pipeline_depth " << depth;
    EXPECT_GE(registry.GetCounter("pipeline.batches")->Value(),
              3 * config.epochs * config.batches_per_epoch)
        << "pipeline_depth " << depth << " did not run the pipeline";
  }
}

TEST(BlockPipelineTest, GraphSageMaxpoolPipelined) {
  auto graph = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  algo::GnnConfig config;
  config.dim = 8;
  config.feature_dim = 8;
  config.fanout1 = 3;
  config.fanout2 = 2;
  config.epochs = 1;
  config.batch_size = 8;
  config.batches_per_epoch = 2;
  config.seed = 13;
  config.aggregator = "maxpool";

  config.pipeline_depth = 0;
  const nn::Matrix inline_run =
      std::move(algo::GraphSage(config).Embed(graph)).value();
  config.pipeline_depth = 2;
  const nn::Matrix piped = std::move(algo::GraphSage(config).Embed(graph)).value();
  EXPECT_TRUE(BitEqual(inline_run, piped));
}

// ---------------------------------------------------------------------------
// Stress: a feature source that alternates between slow and instant
// gathers drives both backpressure edges — slow gathers fill the sampled
// queue until the sample stage blocks on Push, fast stretches drain the
// gathered queue until the compute stage blocks on Pop. Run under TSan in
// CI; the differential still demands bit-identity at the end.

class SlowFeatureSource : public block::FeatureSource {
 public:
  SlowFeatureSource(const nn::Matrix& matrix, int slow_every)
      : inner_(matrix), slow_every_(slow_every) {}

  size_t dim() const override { return inner_.dim(); }
  Status Gather(std::span<const VertexId> vertices, nn::Matrix* out,
                std::vector<uint8_t>* ok = nullptr) override {
    if (slow_every_ > 0 && ++calls_ % slow_every_ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    return inner_.Gather(vertices, out, ok);
  }

 private:
  block::MatrixFeatureSource inner_;
  const int slow_every_;
  int calls_ = 0;  // gather-lane only: single-threaded by construction
};

TEST(BlockPipelineTest, StressSlowGatherForcesQueueEdges) {
  proptest::PropContext ctx(/*seed=*/1234);
  const AttributedGraph graph = proptest::RandomGraph(ctx);
  const size_t d = 8;
  nn::Matrix features(graph.num_vertices(), d);
  for (size_t i = 0; i < features.size(); ++i) {
    features.data()[i] = ctx.rng.NextFloat();
  }
  const std::vector<uint32_t> fans{3, 2};
  const size_t num_batches = 16;
  std::vector<std::vector<VertexId>> roots(num_batches);
  for (auto& r : roots) {
    r.resize(8);
    for (auto& v : r) {
      v = static_cast<VertexId>(ctx.rng.Uniform(graph.num_vertices()));
    }
  }
  const uint64_t draw_seed = 99;

  const auto seq =
      RunSequential(graph, features, draw_seed, roots, fans, false);

  LocalNeighborSource source(graph);
  SlowFeatureSource slow(features, /*slow_every=*/2);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, draw_seed);
  std::vector<BatchCapture> out(num_batches);
  // Depth 1 narrows the queues so both edges hit constantly; an
  // occasionally-sleeping compute stage pushes back on the gathered queue
  // from the other side.
  pipeline::BlockPipeline pipe(/*depth=*/1);
  pipe.RunStages(
      num_batches,
      [&](size_t b, block::SampledBlock* blk, std::any*) {
        *blk = sampler.SampleBlock(source, roots[b],
                                   NeighborhoodSampler::kAllEdgeTypes, fans);
      },
      [&](const block::SampledBlock& blk) {
        return block::GatherBlockFeatures(blk, slow, nullptr);
      },
      [&](size_t b, const block::SampledBlock& blk, const nn::Matrix& x,
          std::any&) {
        if (b % 5 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        out[b].globals.assign(blk.globals().begin(), blk.globals().end());
        out[b].features = x;
      });
  for (size_t b = 0; b < num_batches; ++b) {
    EXPECT_EQ(out[b].globals, seq[b].globals) << "batch " << b;
    EXPECT_TRUE(BitEqual(out[b].features, seq[b].features)) << "batch " << b;
  }
}

// ---------------------------------------------------------------------------
// Observability: stage busy counters, queue-depth gauges and the per-batch
// causal trace tree (one parentless "pipeline/batch" root with one sample /
// gather / compute child each). Laned (depth 2), the three children live on
// three different threads; inline (depth 0), all three run on the caller's
// thread and no stage ever stalls on a queue.

TEST(BlockPipelineTest, ExportsMetricsAndPerBatchTraceTrees) {
  proptest::PropContext ctx(/*seed=*/4321);
  const AttributedGraph graph = proptest::RandomGraph(ctx);
  const size_t d = 4;
  nn::Matrix features(graph.num_vertices(), d);
  for (size_t i = 0; i < features.size(); ++i) {
    features.data()[i] = ctx.rng.NextFloat();
  }
  const std::vector<uint32_t> fans{2, 2};
  const size_t num_batches = 5;
  std::vector<std::vector<VertexId>> roots(num_batches);
  for (auto& r : roots) {
    r.resize(4);
    for (auto& v : r) {
      v = static_cast<VertexId>(ctx.rng.Uniform(graph.num_vertices()));
    }
  }

  for (const size_t depth : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "depth " << depth);
    obs::MetricsRegistry registry;
    obs::SetDefault(&registry);
    obs::Tracer tracer;
    obs::SetDefaultTracer(&tracer);
    RunPipelined(graph, features, /*draw_seed=*/7, roots, fans,
                 /*use_row_cache=*/false, depth);
    // Marks the caller's ring, to tell which thread ran which stage.
    { obs::ScopedSpan marker("test/caller"); }
    obs::SetDefaultTracer(nullptr);
    obs::SetDefault(nullptr);

    EXPECT_EQ(registry.GetCounter("pipeline.batches")->Value(), num_batches);
    EXPECT_GT(registry.GetCounter("pipeline.stage_busy_us.sample")->Value(),
              0u);
    // Gather/compute on tiny batches can round to 0us, but the handles must
    // exist; the queue gauges must have drained back to empty.
    (void)registry.GetCounter("pipeline.stage_busy_us.gather");
    (void)registry.GetCounter("pipeline.stall_us.compute");
    EXPECT_EQ(registry.GetGauge("pipeline.queue_depth.sampled")->Value(), 0.0);
    EXPECT_EQ(registry.GetGauge("pipeline.queue_depth.gathered")->Value(),
              0.0);
    if (depth == 0) {
      for (const char* stall :
           {"pipeline.stall_us.sample", "pipeline.stall_us.gather",
            "pipeline.stall_us.compute"}) {
        EXPECT_EQ(registry.GetCounter(stall)->Value(), 0u) << stall;
      }
    }

    const std::vector<obs::SpanEvent> events = tracer.Events();
    uint32_t caller = 0;
    bool caller_found = false;
    for (const obs::SpanEvent& event : events) {
      if (event.name == "test/caller") {
        caller = event.thread;
        caller_found = true;
      }
    }
    ASSERT_TRUE(caller_found);

    const obs::TraceForest forest = obs::AssembleTraces(events);
    size_t batch_trees = 0;
    for (const obs::TraceTree& tree : forest.traces) {
      if (tree.root_event().name != "pipeline/batch") continue;
      ++batch_trees;
      EXPECT_EQ(tree.root_event().parent_span_id, 0u);
      // The three stage spans parent directly under the batch root: one
      // causal tree spanning the whole handoff chain, whichever threads
      // ran it. Compute is always the caller's.
      std::multiset<std::string> names;
      std::set<uint32_t> threads;
      for (const size_t child : tree.nodes[tree.root].children) {
        const obs::SpanEvent& event = tree.nodes[child].event;
        names.insert(event.name);
        threads.insert(event.thread);
        if (event.name == "pipeline/compute") {
          EXPECT_EQ(event.thread, caller);
        }
      }
      EXPECT_EQ(names.count("pipeline/sample"), 1u);
      EXPECT_EQ(names.count("pipeline/gather"), 1u);
      EXPECT_EQ(names.count("pipeline/compute"), 1u);
      if (depth == 0) {
        EXPECT_EQ(threads, std::set<uint32_t>{caller});
      } else {
        EXPECT_EQ(threads.size(), 3u);
      }
    }
    EXPECT_EQ(batch_trees, num_batches);
  }
}

}  // namespace
}  // namespace aligraph
