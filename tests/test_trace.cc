/// \file test_trace.cc
/// \brief Causal tracing: context minting/propagation, parentage across
/// ThreadPool handoffs, trace completeness of a pipelined k-hop batch and
/// of fault-injected sampling, timeline assembly, the
/// critical-path analyzer, Chrome trace export, and the bench_compare
/// regression gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "algo/embedding_algorithm.h"
#include "algo/gnn.h"
#include "block/feature_source.h"
#include "cluster/cluster.h"
#include "common/threadpool.h"
#include "fault/fault_injector.h"
#include "fault/retry_policy.h"
#include "gen/powerlaw.h"
#include "obs/compare.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "pipeline/block_pipeline.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

using obs::AssembleTraces;
using obs::ScopedSpan;
using obs::SpanEvent;
using obs::TraceContext;
using obs::TraceForest;
using obs::TraceTree;
using obs::Tracer;

AttributedGraph MakeGraph(uint64_t seed = 9) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 1200;
  cfg.avg_degree = 6;
  cfg.seed = seed;
  return std::move(gen::ChungLu(cfg)).value();
}

/// RAII attach/detach of a tracer as the process default.
class TracerSession {
 public:
  explicit TracerSession(Tracer* t) { obs::SetDefaultTracer(t); }
  ~TracerSession() { obs::SetDefaultTracer(nullptr); }
};

const SpanEvent* FindByName(const std::vector<SpanEvent>& events,
                            const std::string& name) {
  for (const SpanEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

size_t CountByName(const TraceTree& tree, const std::string& name) {
  size_t n = 0;
  for (const auto& node : tree.nodes) n += node.event.name == name;
  return n;
}

const TraceTree* TreeRootedAt(const TraceForest& forest,
                              const std::string& root_name) {
  for (const TraceTree& tree : forest.traces) {
    if (tree.root_event().name == root_name) return &tree;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Context minting and same-thread nesting.

TEST(TraceContextTest, NoTracerMeansNoContext) {
  ASSERT_EQ(obs::DefaultTracer(), nullptr);
  ScopedSpan span("detached");
  EXPECT_EQ(obs::CurrentTraceContext().trace_id, 0u);
}

TEST(TraceContextTest, RootSpanMintsItsOwnTrace) {
  Tracer tracer;
  TracerSession session(&tracer);
  TraceContext inside;
  {
    ScopedSpan span("root");
    inside = obs::CurrentTraceContext();
    EXPECT_NE(inside.span_id, 0u);
    EXPECT_EQ(inside.trace_id, inside.span_id);
  }
  EXPECT_EQ(obs::CurrentTraceContext().trace_id, 0u);

  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, inside.trace_id);
  EXPECT_EQ(events[0].span_id, inside.span_id);
  EXPECT_EQ(events[0].parent_span_id, 0u);
}

TEST(TraceContextTest, NestedSpanInheritsTraceAndParents) {
  Tracer tracer;
  TracerSession session(&tracer);
  {
    ScopedSpan outer("outer");
    const TraceContext outer_ctx = obs::CurrentTraceContext();
    ScopedSpan inner("inner");
    const TraceContext inner_ctx = obs::CurrentTraceContext();
    EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
    EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
  }
  const auto events = tracer.Events();
  const SpanEvent* outer = FindByName(events, "outer");
  const SpanEvent* inner = FindByName(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->trace_id, outer->trace_id);
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
  EXPECT_EQ(outer->parent_span_id, 0u);
  EXPECT_GT(inner->depth, outer->depth);
}

TEST(TraceContextTest, SiblingSpansShareParent) {
  Tracer tracer;
  TracerSession session(&tracer);
  {
    ScopedSpan outer("outer");
    { ScopedSpan a("a"); }
    { ScopedSpan b("b"); }
  }
  const auto events = tracer.Events();
  const SpanEvent* outer = FindByName(events, "outer");
  const SpanEvent* a = FindByName(events, "a");
  const SpanEvent* b = FindByName(events, "b");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(a->parent_span_id, outer->span_id);
  EXPECT_EQ(b->parent_span_id, outer->span_id);
  EXPECT_NE(a->span_id, b->span_id);
}

TEST(TraceContextTest, ScopedTraceContextAdoptsAcrossThreads) {
  Tracer tracer;
  TracerSession session(&tracer);
  TraceContext captured;
  {
    ScopedSpan parent("parent");
    captured = obs::CurrentTraceContext();
    std::thread worker([captured] {
      obs::ScopedTraceContext adopt(captured);
      ScopedSpan child("child");
    });
    worker.join();
  }
  const auto events = tracer.Events();
  const SpanEvent* parent = FindByName(events, "parent");
  const SpanEvent* child = FindByName(events, "child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->trace_id, parent->trace_id);
  EXPECT_EQ(child->parent_span_id, parent->span_id);
  EXPECT_NE(child->thread, parent->thread);  // distinct ring buffers
}

TEST(TraceContextTest, EmptyContextIsUntraced) {
  Tracer tracer;
  tracer.Record("untraced", 1, TraceContext{}, /*parent_span_id=*/0,
                std::chrono::steady_clock::now(), /*duration_ns=*/1000);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 0u);
  const TraceForest forest = AssembleTraces(events);
  EXPECT_TRUE(forest.traces.empty());
  EXPECT_EQ(forest.untraced_spans, 1u);
}

// ---------------------------------------------------------------------------
// Cross-thread handoffs through the thread pool.

TEST(ThreadPoolTraceTest, SubmitPropagatesContext) {
  Tracer tracer;
  TracerSession session(&tracer);
  ThreadPool pool(3);
  uint64_t parent_span = 0;
  {
    ScopedSpan root("request");
    parent_span = obs::CurrentTraceContext().span_id;
    for (int i = 0; i < 8; ++i) pool.Submit([] { ScopedSpan op("op"); });
    pool.Wait();
  }
  const auto events = tracer.Events();
  const SpanEvent* root = FindByName(events, "request");
  ASSERT_NE(root, nullptr);
  size_t ops = 0;
  for (const SpanEvent& e : events) {
    if (e.name != "op") continue;
    ++ops;
    // The op ran on a worker, off the submitting ring.
    EXPECT_NE(e.thread, root->thread);
    EXPECT_EQ(e.trace_id, root->trace_id);
    EXPECT_EQ(e.parent_span_id, parent_span);
  }
  EXPECT_EQ(ops, 8u);
}

TEST(ThreadPoolTraceTest, SubmitOutsideTraceStaysUntraced) {
  Tracer tracer;
  TracerSession session(&tracer);
  ThreadPool pool(1);
  pool.Submit([] { ScopedSpan op("op"); });
  pool.Wait();
  const auto events = tracer.Events();
  const SpanEvent* op = FindByName(events, "op");
  ASSERT_NE(op, nullptr);
  // No submitter context to adopt: the op span minted its own trace.
  EXPECT_EQ(op->trace_id, op->span_id);
  EXPECT_EQ(op->parent_span_id, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: one pipelined k-hop batch through the cluster stays one tree
// across the sample lane, the gather lane and the caller's thread.

TEST(SamplingTraceTest, PipelinedKHopTraceIsCompleteAndSingleRooted) {
  const AttributedGraph graph = MakeGraph();
  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 4)).value();
  CommStats stats;
  DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
  block::ClusterFeatureSource features(cluster, /*worker=*/0, /*dim=*/8,
                                       &stats);
  pipeline::BlockPipeline pipe(/*depth=*/2);

  // Attach AFTER the build so the only recorded request is the batch.
  Tracer tracer;
  TracerSession session(&tracer);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, /*seed=*/5);
  std::vector<VertexId> roots(64);
  for (size_t i = 0; i < roots.size(); ++i) {
    roots[i] = static_cast<VertexId>(i * 7 % graph.num_vertices());
  }
  const std::vector<uint32_t> fans{4, 3};
  size_t computed_rows = 0;
  pipe.RunStages(
      /*num_batches=*/1,
      [&](size_t, block::SampledBlock* blk, std::any*) {
        *blk = sampler.SampleBlock(source, roots,
                                   NeighborhoodSampler::kAllEdgeTypes, fans);
      },
      [&](const block::SampledBlock& blk) {
        return block::GatherBlockFeatures(blk, features,
                                          /*row_cache=*/nullptr);
      },
      [&](size_t, const block::SampledBlock& blk, const nn::Matrix& x,
          std::any&) {
        EXPECT_EQ(blk.root_locals().size(), roots.size());
        computed_rows = x.rows();
      });
  EXPECT_GT(computed_rows, 0u);

  const auto events = tracer.Events();
  const TraceForest forest = AssembleTraces(events);
  EXPECT_EQ(forest.orphan_spans, 0u);
  EXPECT_EQ(forest.untraced_spans, 0u);

  const TraceTree* tree = TreeRootedAt(forest, "pipeline/batch");
  ASSERT_NE(tree, nullptr);
  // Every recorded event belongs to this one batch: nothing leaked into a
  // second trace, and the batch has exactly one parentless span.
  ASSERT_EQ(forest.traces.size(), 1u);
  EXPECT_EQ(tree->nodes.size(), events.size());
  size_t parentless = 0;
  for (const auto& node : tree->nodes) {
    parentless += node.event.parent_span_id == 0;
    EXPECT_EQ(node.event.trace_id, tree->trace_id);
  }
  EXPECT_EQ(parentless, 1u);

  // The stages and the layers the batch crossed are all in its tree.
  EXPECT_EQ(CountByName(*tree, "pipeline/sample"), 1u);
  EXPECT_EQ(CountByName(*tree, "pipeline/gather"), 1u);
  EXPECT_EQ(CountByName(*tree, "pipeline/compute"), 1u);
  EXPECT_EQ(CountByName(*tree, "sample/block"), 1u);
  EXPECT_EQ(CountByName(*tree, "sample/neighborhood"), 1u);
  EXPECT_EQ(CountByName(*tree, "sample/hop0"), 1u);
  EXPECT_EQ(CountByName(*tree, "sample/hop1"), 1u);
  EXPECT_EQ(CountByName(*tree, "cluster/batch_read"), fans.size());
  EXPECT_GT(CountByName(*tree, "cluster/remote_serve"), 0u);
  EXPECT_EQ(CountByName(*tree, "cluster/attr_batch_read"), 1u);

  // Sample lane, gather lane and the caller's compute thread: three rings.
  std::set<uint32_t> threads;
  for (const auto& node : tree->nodes) threads.insert(node.event.thread);
  EXPECT_EQ(threads.size(), 3u);
}

/// Ids of this process's threads, or nullopt where /proc/self/task cannot
/// be read.
std::optional<std::set<std::string>> ThreadIds() {
  std::error_code ec;
  std::set<std::string> ids;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ids.insert(it->path().filename().string());
  }
  if (ec) return std::nullopt;
  return ids;
}

// A trainer's pipeline lanes live as long as the trainer: three TrainEpochs
// and two Infer calls at depth 2 record spans on at most three rings (the
// caller plus the two lanes) and run on two threads started with the
// trainer. At depth 0 every span is on the caller's ring and no thread
// starts.
TEST(SamplingTraceTest, TrainerLanesOutliveItsCalls) {
  const AttributedGraph graph = MakeGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);
  algo::GnnConfig config;
  config.dim = 8;
  config.feature_dim = 8;
  config.fanout1 = 3;
  config.fanout2 = 2;
  config.batch_size = 16;
  config.batches_per_epoch = 4;
  for (const size_t depth : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "depth " << depth);
    config.pipeline_depth = depth;
    const std::optional<std::set<std::string>> before = ThreadIds();
    // Every thread id that appears after `before` was read, except the
    // poller's own. The poller catches threads that start and end inside
    // one call.
    std::set<std::string> started;
    std::mutex started_mu;
    std::atomic<pid_t> poller_tid{0};
    // Returns how many have been seen so far.
    const auto note_new_threads = [&] {
      const auto now = ThreadIds();
      const std::string poller = std::to_string(poller_tid.load());
      std::lock_guard<std::mutex> lock(started_mu);
      for (const std::string& id : now.value_or(std::set<std::string>{})) {
        if (!before->count(id) && id != poller) started.insert(id);
      }
      return started.size();
    };
    std::atomic<bool> done{false};
    std::thread poller;
    if (before) {
      poller = std::thread([&] {
        poller_tid.store(::gettid());
        while (!done.load()) {
          note_new_threads();
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      });
      while (poller_tid.load() == 0) std::this_thread::yield();
    }

    const size_t lanes = depth == 0 ? 0 : 2;
    Tracer tracer;
    TracerSession session(&tracer);
    {
      algo::SageTrainer trainer(config, features.cols());
      if (before) {
        EXPECT_EQ(note_new_threads(), lanes) << "at construction";
      }
      for (int i = 0; i < 3; ++i) trainer.TrainEpochs(graph, features, 1);
      for (int i = 0; i < 2; ++i) trainer.Infer(graph, features);
      if (before) {
        EXPECT_EQ(note_new_threads(), lanes) << "after the calls";
      }
    }
    done.store(true);
    if (before) {
      poller.join();
      EXPECT_EQ(started.size(), lanes) << "during the calls";
    }

    std::set<uint32_t> rings;
    for (const SpanEvent& e : tracer.Events()) rings.insert(e.thread);
    if (depth == 0) {
      EXPECT_EQ(rings.size(), 1u);
    } else {
      EXPECT_GE(rings.size(), 2u);
      EXPECT_LE(rings.size(), 3u);
    }
  }
}

TEST(SamplingTraceTest, RetryAttemptsAreLinkedIntoTheRequestTrace) {
  const AttributedGraph graph = MakeGraph();
  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 4)).value();
  FaultConfig cfg;
  cfg.seed = 11;
  // Every request to worker 1 fails its first attempt, forcing a retry.
  cfg.schedule.push_back({1, FaultKind::kTransient, 1});
  cluster.InstallFaultInjection(cfg);

  CommStats stats;
  DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
  Tracer tracer;
  TracerSession session(&tracer);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, /*seed=*/6);
  std::vector<VertexId> roots(48);
  for (size_t i = 0; i < roots.size(); ++i) {
    roots[i] = static_cast<VertexId>(i);
  }
  const std::vector<uint32_t> fans{4, 3};
  (void)sampler.SampleBlock(source, roots,
                            NeighborhoodSampler::kAllEdgeTypes, fans);

  const auto events = tracer.Events();
  const TraceForest forest = AssembleTraces(events);
  EXPECT_EQ(forest.orphan_spans, 0u);
  const TraceTree* tree = TreeRootedAt(forest, "sample/block");
  ASSERT_NE(tree, nullptr);
  // The degraded read's recovery is part of the request's causal tree, not
  // a disconnected side story.
  EXPECT_GT(CountByName(*tree, "cluster/retry"), 0u);
  EXPECT_GT(CountByName(*tree, "cluster/retry_attempt"), 0u);
  ASSERT_GT(stats.retry_attempts.load(), 0u);
}

// ---------------------------------------------------------------------------
// Timeline assembly + critical path on synthetic events.

SpanEvent MakeEvent(const char* name, uint64_t trace, uint64_t span,
                    uint64_t parent, uint32_t thread, int64_t start_us,
                    int64_t dur_us) {
  SpanEvent e;
  e.name = name;
  e.trace_id = trace;
  e.span_id = span;
  e.parent_span_id = parent;
  e.thread = thread;
  e.start_ns = start_us * 1000;
  e.duration_ns = dur_us * 1000;
  return e;
}

TEST(TimelineTest, AssembleLinksChildrenAndCountsOrphans) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent("root", 1, 1, 0, 0, 0, 100));
  events.push_back(MakeEvent("child", 1, 2, 1, 1, 10, 20));
  events.push_back(MakeEvent("orphan", 1, 3, 999, 0, 50, 5));  // evicted parent
  events.push_back(MakeEvent("other_root", 7, 7, 0, 0, 0, 1));
  const TraceForest forest = AssembleTraces(events);
  ASSERT_EQ(forest.traces.size(), 2u);
  EXPECT_EQ(forest.orphan_spans, 1u);
  const TraceTree* tree = TreeRootedAt(forest, "root");
  ASSERT_NE(tree, nullptr);
  ASSERT_EQ(tree->nodes[tree->root].children.size(), 1u);
  EXPECT_EQ(tree->nodes[tree->nodes[tree->root].children[0]].event.name,
            "child");
}

TEST(TimelineTest, RootlessTraceContributesOnlyOrphans) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent("a", 3, 10, 5, 0, 0, 10));  // parent 5 evicted
  events.push_back(MakeEvent("b", 3, 11, 10, 0, 2, 4));
  const TraceForest forest = AssembleTraces(events);
  EXPECT_TRUE(forest.traces.empty());
  EXPECT_EQ(forest.orphan_spans, 2u);
}

TEST(CriticalPathTest, DescendsIntoLastFinishingChild) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent("root", 1, 1, 0, 0, 0, 100));
  events.push_back(MakeEvent("fast", 1, 2, 1, 1, 0, 30));
  events.push_back(MakeEvent("slow", 1, 3, 1, 1, 40, 55));   // ends at 95
  events.push_back(MakeEvent("inner", 1, 4, 3, 2, 50, 40));  // ends at 90
  const TraceForest forest = AssembleTraces(events);
  ASSERT_EQ(forest.traces.size(), 1u);
  const obs::CriticalPath path =
      obs::ComputeCriticalPath(forest.traces[0]);
  ASSERT_EQ(path.steps.size(), 3u);
  EXPECT_EQ(path.steps[0].name, "root");
  EXPECT_EQ(path.steps[1].name, "slow");  // finished after "fast"
  EXPECT_EQ(path.steps[2].name, "inner");
  EXPECT_DOUBLE_EQ(path.total_us, 100.0);
  EXPECT_DOUBLE_EQ(path.steps[0].self_us, 45.0);  // 100 - 55
  EXPECT_DOUBLE_EQ(path.steps[1].self_us, 15.0);  // 55 - 40
  EXPECT_DOUBLE_EQ(path.steps[2].self_us, 40.0);  // leaf keeps everything
  ASSERT_NE(path.DominantStep(), nullptr);
  EXPECT_EQ(path.DominantStep()->name, "root");
  EXPECT_FALSE(path.ToString().empty());
}

// ---------------------------------------------------------------------------
// Chrome trace export.

TEST(ChromeTraceTest, ExportParsesAndCarriesCausalIds) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent("root", 1, 1, 0, 0, 0, 100));
  events.push_back(MakeEvent("hop", 1, 2, 1, 1, 10, 50));  // cross-thread
  const std::string json = obs::ChromeTraceJson(events);
  auto parsed = obs::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->IsArray());

  size_t complete = 0, flow_starts = 0, flow_ends = 0, meta = 0;
  for (const auto& e : trace_events->items) {
    const std::string ph = e.Find("ph")->string_value;
    if (ph == "X") {
      ++complete;
      ASSERT_NE(e.Find("args"), nullptr);
      EXPECT_NE(e.Find("args")->Find("span_id"), nullptr);
      EXPECT_NE(e.Find("args")->Find("trace_id"), nullptr);
    } else if (ph == "s") {
      ++flow_starts;
    } else if (ph == "f") {
      ++flow_ends;
    } else if (ph == "M") {
      ++meta;
    }
  }
  EXPECT_EQ(complete, 2u);
  // One cross-thread parent->child edge: one flow arrow (start + end).
  EXPECT_EQ(flow_starts, 1u);
  EXPECT_EQ(flow_ends, 1u);
  EXPECT_GE(meta, 3u);  // process name + two thread names
}

TEST(ChromeTraceTest, SameThreadEdgesGetNoFlowArrows) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent("root", 1, 1, 0, 0, 0, 100));
  events.push_back(MakeEvent("child", 1, 2, 1, 0, 10, 50));
  const std::string json = obs::ChromeTraceJson(events);
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
}

TEST(ChromeTraceTest, WriteCreatesParentDirectories) {
  const std::string path =
      ::testing::TempDir() + "/aligraph_trace_test/sub/out.trace.json";
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent("root", 1, 1, 0, 0, 0, 10));
  const Status st = obs::WriteChromeTrace(events, path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_TRUE(obs::JsonValue::Parse(content).ok());
}

// ---------------------------------------------------------------------------
// Run-report provenance + deterministic metric ordering.

TEST(ReportTest, BuildInfoAppearsInJson) {
  obs::RunReport report("r");
  report.SetBuildInfo("abc123", "testcc 1.0", "Debug");
  auto parsed = obs::JsonValue::Parse(report.ToJson());
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue* build = parsed->Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->Find("git_sha")->string_value, "abc123");
  EXPECT_EQ(build->Find("compiler")->string_value, "testcc 1.0");
  EXPECT_EQ(build->Find("build_type")->string_value, "Debug");
}

TEST(ReportTest, MetricsSerializeSorted) {
  obs::RunReport report("r");
  report.AddMetric("z.last", 3);
  report.AddMetric("a.first", 1);
  report.AddMetric("m.middle", 2);
  auto parsed = obs::JsonValue::Parse(report.ToJson());
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->members.size(), 3u);
  EXPECT_EQ(metrics->members[0].first, "a.first");
  EXPECT_EQ(metrics->members[1].first, "m.middle");
  EXPECT_EQ(metrics->members[2].first, "z.last");
}

// ---------------------------------------------------------------------------
// Regression gate.

std::string MetricsJson(const std::string& body) {
  return "{\"schema_version\":1,\"name\":\"t\",\"metrics\":{" + body + "}}";
}

TEST(CompareTest, RegressionBeyondToleranceFailsTheGate) {
  const auto result = obs::CompareReportJson(
      MetricsJson("\"a.ms\":10.0"), MetricsJson("\"a.ms\":12.0"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->regressed, 1u);
  ASSERT_EQ(result->metrics.size(), 1u);
  EXPECT_EQ(result->metrics[0].verdict, obs::MetricVerdict::kRegressed);
  EXPECT_NEAR(result->metrics[0].RelativeDelta(), 0.2, 1e-9);
}

TEST(CompareTest, WithinToleranceAndImprovementsPass) {
  const auto result = obs::CompareReportJson(
      MetricsJson("\"a.ms\":10.0,\"b.ms\":10.0,\"c.ms\":10.0"),
      MetricsJson("\"a.ms\":10.5,\"b.ms\":7.0,\"c.ms\":10.0"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->regressed, 0u);
  EXPECT_EQ(result->improved, 1u);
}

TEST(CompareTest, ExtraCandidateMetricsAreIgnored) {
  const auto result = obs::CompareReportJson(
      MetricsJson("\"a.ms\":10.0"),
      MetricsJson("\"a.ms\":10.0,\"wall.ms\":99999.0"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->metrics.size(), 1u);
}

TEST(CompareTest, MissingMetricFailsTheGate) {
  const auto result = obs::CompareReportJson(
      MetricsJson("\"a.ms\":10.0,\"gone.ms\":1.0"),
      MetricsJson("\"a.ms\":10.0"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ok());
  EXPECT_EQ(result->missing, 1u);
}

TEST(CompareTest, MalformedJsonIsAnError) {
  const auto bad_baseline =
      obs::CompareReportJson("{not json", MetricsJson("\"a\":1"));
  EXPECT_FALSE(bad_baseline.ok());
  const auto bad_candidate =
      obs::CompareReportJson(MetricsJson("\"a\":1"), "[1,2");
  EXPECT_FALSE(bad_candidate.ok());
  const auto no_metrics =
      obs::CompareReportJson("{\"name\":\"x\"}", MetricsJson("\"a\":1"));
  EXPECT_FALSE(no_metrics.ok());
  const auto non_numeric = obs::CompareReportJson(
      MetricsJson("\"a\":\"fast\""), MetricsJson("\"a\":1"));
  EXPECT_FALSE(non_numeric.ok());
}

TEST(CompareTest, PerMetricToleranceOverridesDefault) {
  obs::CompareOptions options;
  options.per_metric_tolerance["noisy.ms"] = 0.5;
  const auto result = obs::CompareReportJson(
      MetricsJson("\"noisy.ms\":10.0,\"tight.ms\":10.0"),
      MetricsJson("\"noisy.ms\":14.0,\"tight.ms\":14.0"), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->regressed, 1u);  // only tight.ms, noisy.ms is within 50%
  for (const auto& m : result->metrics) {
    if (m.name == "noisy.ms") {
      EXPECT_EQ(m.verdict, obs::MetricVerdict::kPass);
    } else {
      EXPECT_EQ(m.verdict, obs::MetricVerdict::kRegressed);
    }
  }
}

TEST(CompareTest, ZeroBaselineUsesAbsoluteSlack) {
  const auto tiny = obs::CompareReportJson(MetricsJson("\"a\":0.0"),
                                           MetricsJson("\"a\":0.0000005"));
  ASSERT_TRUE(tiny.ok());
  EXPECT_TRUE(tiny->ok());  // within the 1e-6 absolute slack
  const auto real = obs::CompareReportJson(MetricsJson("\"a\":0.0"),
                                           MetricsJson("\"a\":0.1"));
  ASSERT_TRUE(real.ok());
  EXPECT_FALSE(real->ok());
}

}  // namespace
}  // namespace aligraph
