// Tests for the observability subsystem: sharded metrics registry, scoped
// tracing with nested spans, JSON writer/parser, machine-readable run
// reports, and the consistency of the cluster's exported comm counters
// with CommStats snapshots.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "common/histogram.h"
#include "gen/powerlaw.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsTest, CounterStartsAtZeroAndAdds) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(MetricsTest, GetReturnsStableHandle) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("same");
  obs::Counter* b = registry.GetCounter("same");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("other"));
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("concurrent");
  constexpr int kThreads = 8;
  constexpr uint64_t kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kIncrements; ++i) c->Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), kThreads * kIncrements);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("g");
  g->Set(1.5);
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
}

TEST(MetricsTest, HistogramBucketsAndPercentiles) {
  obs::MetricsRegistry registry;
  const double bounds[] = {10.0, 100.0, 1000.0};
  obs::Histogram* h = registry.GetHistogram("h", bounds);
  for (int i = 0; i < 90; ++i) h->Record(5.0);    // bucket 0
  for (int i = 0; i < 9; ++i) h->Record(50.0);    // bucket 1
  h->Record(1e9);                                 // overflow bucket
  const obs::HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 100u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 90u);
  EXPECT_EQ(snap.counts[1], 9u);
  EXPECT_EQ(snap.counts[3], 1u);
  // Interpolated within the containing bucket: rank 50 of 90 records in
  // [0, 10) sits at 10 * 50/90; rank 95 is 5 of the 9 records in [10, 100).
  EXPECT_DOUBLE_EQ(snap.Percentile(50.0), 10.0 * 50.0 / 90.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(95.0), 10.0 + 90.0 * 5.0 / 9.0);
  // Overflow bucket has no upper edge: reports the last finite bound.
  EXPECT_DOUBLE_EQ(snap.Percentile(99.9), 1000.0);
}

// A bucket's lower edge is inclusive: a value exactly at a bound counts in
// the bucket above it, and just below the bound in the bucket below.
TEST(MetricsTest, HistogramValueAtBoundLandsInNextBucket) {
  obs::MetricsRegistry registry;
  const double bounds[] = {10.0, 100.0};
  obs::Histogram* h = registry.GetHistogram("h", bounds);
  h->Record(std::nextafter(10.0, 0.0));  // bucket 0
  h->Record(10.0);                       // bucket 1
  h->Record(100.0);                      // overflow bucket
  const obs::HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
}

// Degenerate snapshots the attribution/window layers can legitimately
// produce (empty windows, single-phase mass, out-of-range p) must resolve
// to defined values, not UB or surprises.
TEST(MetricsTest, PercentileEdgeCases) {
  // Empty snapshot: any percentile is 0 by definition.
  obs::HistogramSnapshot empty;
  empty.bounds = {10.0, 100.0};
  empty.counts = {0, 0, 0};
  EXPECT_DOUBLE_EQ(empty.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(100.0), 0.0);

  // All mass in one interior bucket: p interpolates across [lo, hi] and
  // p0 / p100 clamp to the bucket edges.
  obs::HistogramSnapshot single;
  single.bounds = {10.0, 100.0};
  single.counts = {4, 0, 0};
  single.count = 4;
  EXPECT_DOUBLE_EQ(single.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(single.Percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(single.Percentile(100.0), 10.0);
  // Out-of-range p clamps instead of extrapolating: below 0 pins to the
  // bucket's lower edge, above 100 to the last finite bound.
  EXPECT_DOUBLE_EQ(single.Percentile(-10.0), 0.0);
  EXPECT_DOUBLE_EQ(single.Percentile(150.0), 100.0);

  // All mass in the overflow bucket: no upper edge to interpolate toward,
  // every percentile reports the last finite bound.
  obs::HistogramSnapshot overflow;
  overflow.bounds = {10.0, 100.0};
  overflow.counts = {0, 0, 7};
  overflow.count = 7;
  EXPECT_DOUBLE_EQ(overflow.Percentile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(50.0), 100.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(100.0), 100.0);

  // A boundless snapshot (only the overflow bucket exists) degrades to 0.
  obs::HistogramSnapshot boundless;
  boundless.counts = {3};
  boundless.count = 3;
  EXPECT_DOUBLE_EQ(boundless.Percentile(50.0), 0.0);
}

// The tail percentiles the serving layer gates on: 1000 uniformly spread
// values in one bucket must resolve p99.9 by interpolation instead of
// snapping to the bucket bound.
TEST(MetricsTest, HistogramP999OnKnownDistribution) {
  obs::MetricsRegistry registry;
  const double bounds[] = {1000.0, 2000.0};
  obs::Histogram* h = registry.GetHistogram("h999", bounds);
  // 1..999: every value strictly inside the first bucket (a value equal to
  // a bound lands in the NEXT bucket — upper_bound semantics).
  for (int i = 1; i <= 999; ++i) h->Record(static_cast<double>(i));
  const obs::HistogramSnapshot snap = h->Snapshot();
  // Interpolation assumes values spread uniformly over [0, 1000]; for this
  // distribution that is accurate to about one value. Without
  // interpolation every one of these would snap to 1000.
  EXPECT_NEAR(snap.Percentile(50.0), 500.0, 1.5);
  EXPECT_NEAR(snap.Percentile(99.0), 990.0, 1.5);
  EXPECT_NEAR(snap.Percentile(99.9), 999.0, 1.5);
  // p99.9 resolves BELOW the bucket bound — the whole point.
  EXPECT_LT(snap.Percentile(99.9), 1000.0);
  EXPECT_GT(snap.Percentile(99.9), snap.Percentile(99.0));
  EXPECT_DOUBLE_EQ(snap.Percentile(100.0), 1000.0);
  // Percentiles are monotone in p.
  double prev = 0.0;
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0}) {
    const double v = snap.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  // The Summary sibling (exact, order-statistic based) agrees on the same
  // distribution to within two values.
  Summary s;
  for (int i = 1; i <= 999; ++i) s.Add(static_cast<double>(i));
  EXPECT_NEAR(s.Percentile(99.9), snap.Percentile(99.9), 2.0);
}

TEST(MetricsTest, HistogramConcurrentRecordsAreExact) {
  obs::MetricsRegistry registry;
  obs::Histogram* h =
      registry.GetHistogram("hc", obs::LatencyBoundsUs());
  constexpr int kThreads = 4;
  constexpr uint64_t kRecords = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (uint64_t i = 0; i < kRecords; ++i) h->Record(3.0);
    });
  }
  for (auto& th : threads) th.join();
  const obs::HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, kThreads * kRecords);
  EXPECT_DOUBLE_EQ(snap.sum, 3.0 * kThreads * kRecords);
}

TEST(MetricsTest, SnapshotCoversAllMetrics) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c1")->Add(7);
  registry.GetGauge("g1")->Set(0.25);
  registry.GetHistogram("h1")->Record(12.0);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c1"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g1"), 0.25);
  EXPECT_EQ(snap.histograms.at("h1").count, 1u);
}

TEST(MetricsTest, DefaultHandlesAreNullWhenDetached) {
  ASSERT_EQ(obs::Default(), nullptr);
  EXPECT_EQ(obs::DefaultCounter("x"), nullptr);
  EXPECT_EQ(obs::DefaultGauge("x"), nullptr);
  EXPECT_EQ(obs::DefaultHistogram("x"), nullptr);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceTest, ScopedSpanIsNoOpWhenDetached) {
  ASSERT_EQ(obs::DefaultTracer(), nullptr);
  {
    obs::ScopedSpan span("detached/none");
  }
  EXPECT_EQ(obs::CurrentSpanDepth(), 0u);
}

TEST(TraceTest, NestedSpansAggregateWithDepths) {
  obs::Tracer tracer;
  obs::SetDefaultTracer(&tracer);
  for (int i = 0; i < 3; ++i) {
    obs::ScopedSpan outer("test/outer");
    EXPECT_EQ(obs::CurrentSpanDepth(), 1u);
    {
      obs::ScopedSpan inner("test/inner");
      EXPECT_EQ(obs::CurrentSpanDepth(), 2u);
    }
    {
      obs::ScopedSpan inner("test/inner");
    }
  }
  obs::SetDefaultTracer(nullptr);

  const auto agg = tracer.Aggregate();
  ASSERT_EQ(agg.count("test/outer"), 1u);
  ASSERT_EQ(agg.count("test/inner"), 1u);
  const obs::SpanStats& outer = agg.at("test/outer");
  const obs::SpanStats& inner = agg.at("test/inner");
  EXPECT_EQ(outer.count, 3u);
  EXPECT_EQ(inner.count, 6u);
  EXPECT_EQ(outer.depth, 1u);
  EXPECT_EQ(inner.depth, 2u);
  // Children run inside their parent, so their total cannot exceed it.
  EXPECT_LE(inner.total_us, outer.total_us);
  EXPECT_LE(outer.min_us, outer.max_us);
  EXPECT_EQ(tracer.dropped_records(), 0u);
}

TEST(TraceTest, MultiThreadedSpansAllCounted) {
  obs::Tracer tracer;
  obs::SetDefaultTracer(&tracer);
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        obs::ScopedSpan span("test/mt");
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::SetDefaultTracer(nullptr);
  EXPECT_EQ(tracer.Aggregate().at("test/mt").count,
            static_cast<uint64_t>(kThreads) * kSpans);
}

TEST(TraceTest, RingOverflowCountsDroppedRecords) {
  obs::Tracer tracer(/*ring_capacity=*/8);
  obs::SetDefaultTracer(&tracer);
  for (int i = 0; i < 20; ++i) {
    obs::ScopedSpan span("test/overflow");
  }
  obs::SetDefaultTracer(nullptr);
  EXPECT_EQ(tracer.Aggregate().at("test/overflow").count, 8u);
  EXPECT_EQ(tracer.dropped_records(), 12u);
}

// ---------------------------------------------------------------------------
// JSON writer / parser

TEST(JsonTest, WriterPlacesCommasAndEscapes) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("a").Value(uint64_t{1});
  w.Key("b").BeginArray().Value("x\"y\n").Value(2.5).Null().EndArray();
  w.Key("c").Value(true);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[\"x\\\"y\\n\",2.5,null],\"c\":true}");
}

TEST(JsonTest, WriterDegradesNonFiniteToNull) {
  obs::JsonWriter w;
  w.BeginArray().Value(std::nan("")).Value(1e308).EndArray();
  EXPECT_EQ(w.str().find("nan"), std::string::npos);
  EXPECT_NE(w.str().find("null"), std::string::npos);
}

TEST(JsonTest, ParseRoundTrip) {
  const char* text =
      "{\"name\":\"run\",\"n\":3,\"neg\":-2.5e2,\"ok\":true,"
      "\"none\":null,\"arr\":[1,2,3],\"obj\":{\"k\":\"v\"}}";
  auto parsed = obs::JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue& v = parsed.value();
  ASSERT_TRUE(v.IsObject());
  EXPECT_EQ(v.Find("name")->string_value, "run");
  EXPECT_DOUBLE_EQ(v.Find("n")->number, 3.0);
  EXPECT_DOUBLE_EQ(v.Find("neg")->number, -250.0);
  EXPECT_TRUE(v.Find("ok")->bool_value);
  EXPECT_EQ(v.Find("none")->type, obs::JsonValue::Type::kNull);
  ASSERT_EQ(v.Find("arr")->items.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("arr")->items[2].number, 3.0);
  EXPECT_EQ(v.Find("obj")->Find("k")->string_value, "v");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::JsonValue::Parse("").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("[1] trailing").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("'single'").ok());
}

TEST(JsonTest, ParseUnicodeEscapes) {
  auto parsed = obs::JsonValue::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().string_value, "A\xc3\xa9");
}

TEST(JsonTest, ParseEscapedStrings) {
  auto parsed = obs::JsonValue::Parse(
      "{\"k\\\"ey\": \"a\\\\b\\n\\t\\\"c\\\"\"}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->IsObject());
  const obs::JsonValue* v = parsed->Find("k\"ey");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->string_value, "a\\b\n\t\"c\"");
  // An escape cut off by end-of-input must error, not read past the end.
  EXPECT_FALSE(obs::JsonValue::Parse("\"dangling\\").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"bad escape \\q\"").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"unterminated").ok());
}

TEST(JsonTest, ParseNestedEmptyContainers) {
  auto parsed = obs::JsonValue::Parse("{\"a\":[],\"b\":{},\"c\":[[],[{}]]}");
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->IsArray());
  EXPECT_TRUE(a->items.empty());
  const obs::JsonValue* b = parsed->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->IsObject());
  EXPECT_TRUE(b->members.empty());
  const obs::JsonValue* c = parsed->Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->items.size(), 2u);
  EXPECT_TRUE(c->items[0].items.empty());
  ASSERT_EQ(c->items[1].items.size(), 1u);
  EXPECT_TRUE(c->items[1].items[0].IsObject());
}

TEST(JsonTest, ParseRejectsNumericOverflow) {
  // strtod saturates these to inf; the parser must reject them because the
  // writer never emits non-finite numbers.
  EXPECT_FALSE(obs::JsonValue::Parse("1e400").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("-1e400").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("[1, 2, 1e999]").ok());
  // Large-but-finite still parses.
  auto big = obs::JsonValue::Parse("1e308");
  ASSERT_TRUE(big.ok());
  EXPECT_DOUBLE_EQ(big->number, 1e308);
}

TEST(JsonTest, ParseTruncatedDocumentsErrorNotCrash) {
  // Every prefix of a valid document is either an error or (rarely) a
  // shorter valid document; it must never crash or hang.
  const std::string doc =
      "{\"name\":\"run\",\"metrics\":{\"a\":1.5,\"b\":[1,2,3]},"
      "\"flag\":true,\"none\":null,\"esc\":\"x\\ny\\u0041\"}";
  for (size_t len = 0; len < doc.size(); ++len) {
    auto parsed = obs::JsonValue::Parse(doc.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix length " << len;
  }
  EXPECT_TRUE(obs::JsonValue::Parse(doc).ok());
}

TEST(JsonTest, ParseSurvivesSeededMutations) {
  // Fuzz-style sweep: mutate a valid report-shaped document with seeded
  // byte edits (overwrite / insert / delete) and require the parser to
  // either accept or reject cleanly — ASan/UBSan turn any overread into a
  // hard failure here.
  const std::string doc =
      "{\"schema_version\":1,\"name\":\"bench\",\"meta\":{\"seed\":\"42\"},"
      "\"metrics\":{\"ms\":12.25,\"items\":[1,2.5e3,-4]},"
      "\"counters\":{\"fault.injected\":7},\"spans\":{},"
      "\"tables\":[{\"name\":\"t\",\"columns\":[\"a\"],\"rows\":[[\"1\"]]}]}";
  ASSERT_TRUE(obs::JsonValue::Parse(doc).ok());

  Rng rng(0xfa57'f00dULL);
  const char alphabet[] = "{}[]\",:.0123456789eE+-\\untrlfase \x01\x7f";
  size_t accepted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = doc;
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      const char c = alphabet[rng.Uniform(sizeof(alphabet) - 1)];
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = c;
          break;
        case 1:
          mutated.insert(mutated.begin() + pos, c);
          break;
        default:
          mutated.erase(mutated.begin() + pos);
          break;
      }
    }
    auto parsed = obs::JsonValue::Parse(mutated);
    accepted += parsed.ok();
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
  // Sanity: most random mutations break the document.
  EXPECT_LT(accepted, 2000u / 2);
}

// ---------------------------------------------------------------------------
// RunReport

TEST(RunReportTest, JsonFileRoundTrip) {
  obs::MetricsRegistry registry;
  registry.GetCounter("comm.remote_reads")->Add(123);
  registry.GetGauge("cluster.workers")->Set(4);
  registry.GetHistogram("lat", obs::LatencyBoundsUs())->Record(50.0);

  obs::Tracer tracer;
  obs::SetDefaultTracer(&tracer);
  {
    obs::ScopedSpan span("report/phase");
  }
  obs::SetDefaultTracer(nullptr);

  obs::RunReport report("test_report");
  report.AddMeta("dataset", "synthetic");
  report.AddMeta("scale", 0.5);
  report.AddMetric("headline_ms", 12.25);
  report.AddTable("t", {"col_a", "col_b"});
  report.AddRow({"1", "x"});
  report.AddRow({"2", "y"});
  report.AttachMetrics(registry.Snapshot());
  report.AttachSpans(tracer.Aggregate());

  const std::string dir = ::testing::TempDir() + "/obs_report_test";
  std::string path;
  ASSERT_TRUE(report.WriteFile(dir, &path).ok());
  EXPECT_EQ(path, dir + "/test_report.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = obs::JsonValue::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& v = parsed.value();

  EXPECT_DOUBLE_EQ(v.Find("schema_version")->number, 1.0);
  EXPECT_EQ(v.Find("name")->string_value, "test_report");
  EXPECT_EQ(v.Find("meta")->Find("dataset")->string_value, "synthetic");
  EXPECT_DOUBLE_EQ(v.Find("meta")->Find("scale")->number, 0.5);
  EXPECT_DOUBLE_EQ(v.Find("metrics")->Find("headline_ms")->number, 12.25);
  EXPECT_DOUBLE_EQ(v.Find("counters")->Find("comm.remote_reads")->number,
                   123.0);
  EXPECT_DOUBLE_EQ(v.Find("gauges")->Find("cluster.workers")->number, 4.0);

  const obs::JsonValue* hist = v.Find("histograms")->Find("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->number, 50.0);
  EXPECT_EQ(hist->Find("bounds")->items.size(),
            hist->Find("counts")->items.size() - 1);

  const obs::JsonValue* span = v.Find("spans")->Find("report/phase");
  ASSERT_NE(span, nullptr);
  EXPECT_DOUBLE_EQ(span->Find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(span->Find("depth")->number, 1.0);

  const obs::JsonValue* tables = v.Find("tables");
  ASSERT_TRUE(tables->IsArray());
  ASSERT_EQ(tables->items.size(), 1u);
  EXPECT_EQ(tables->items[0].Find("name")->string_value, "t");
  EXPECT_EQ(tables->items[0].Find("columns")->items[1].string_value, "col_b");
  EXPECT_EQ(tables->items[0].Find("rows")->items[1].items[1].string_value,
            "y");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Cluster reads are counted once, in the caller's CommStats

TEST(ObsIntegrationTest, ClusterChargesCommStatsOnly) {
  obs::MetricsRegistry registry;
  obs::SetDefault(&registry);

  gen::ChungLuConfig cfg;
  cfg.num_vertices = 1200;
  cfg.avg_degree = 6;
  cfg.seed = 17;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();
  // Hybrid placement replicates hubs, so replica reads are charged too.
  auto partitioner = std::move(MakePartitioner("hybrid")).value();
  auto cluster = std::move(Cluster::Build(g, *partitioner, 3)).value();
  ASSERT_TRUE(cluster.plan().HasReplicas());
  cluster.InstallTopImportanceCache(/*k=*/1, 0.1);

  CommStats stats;

  // Per-vertex reads from every worker touch the local, replica, cached and
  // remote paths.
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    cluster.GetNeighbors(static_cast<WorkerId>(v % 3), v, &stats);
  }
  // Batched reads exercise the coalesced pipeline counters.
  {
    DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
    std::vector<VertexId> batch;
    for (VertexId v = 0; v < 200; ++v) batch.push_back(v);
    BatchResult out;
    source.NeighborsBatch(batch, NeighborhoodSampler::kAllEdgeTypes, &out);
    ASSERT_EQ(out.size(), batch.size());
  }

  obs::SetDefault(nullptr);

  const CommStats::Snapshot counts = stats.snapshot();
  EXPECT_GT(counts.local_reads, 0u);
  EXPECT_GT(counts.replica_reads, 0u);
  EXPECT_GT(counts.cache_hits, 0u);
  EXPECT_GT(counts.remote_reads, 0u);
  EXPECT_GT(counts.remote_batches, 0u);
  EXPECT_GT(counts.batched_remote_reads, 0u);

  // The registry keeps what nothing else records (the cluster's shape), and
  // no copy of the read counts the caller's CommStats already holds.
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("cluster.workers"), 3.0);
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name.rfind("comm.", 0), 0u) << name;
    EXPECT_NE(name.rfind("retry.", 0), 0u) << name;
  }
}

TEST(ObsIntegrationTest, ExportToMirrorsSnapshotFields) {
  obs::MetricsRegistry registry;
  CommStats::Snapshot s;
  s.local_reads = 10;
  s.cache_hits = 20;
  s.remote_reads = 30;
  s.remote_batches = 4;
  s.batched_remote_reads = 25;
  s.ExportTo(registry, "phase1");
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("phase1.local_reads"), 10u);
  EXPECT_EQ(snap.counters.at("phase1.cache_hits"), 20u);
  EXPECT_EQ(snap.counters.at("phase1.remote_reads"), 30u);
  EXPECT_EQ(snap.counters.at("phase1.remote_batches"), 4u);
  EXPECT_EQ(snap.counters.at("phase1.batched_remote_reads"), 25u);
}

TEST(ObsIntegrationTest, SamplerRecordsHopHistogramsWhenAttached) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::SetDefault(&registry);
  obs::SetDefaultTracer(&tracer);

  gen::ChungLuConfig cfg;
  cfg.num_vertices = 800;
  cfg.avg_degree = 8;
  cfg.seed = 5;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler;
  std::vector<VertexId> roots{1, 2, 3, 4};
  const std::vector<uint32_t> fans{4, 2};
  sampler.Sample(source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);

  obs::SetDefaultTracer(nullptr);
  obs::SetDefault(nullptr);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histograms.at("sample.hop_latency_us").count, 2u);
  EXPECT_EQ(snap.histograms.at("sample.frontier_size").count, 2u);
  // The duplicate ratio comes from SampledBlock::Build's relabel; the flat
  // adapter never builds a block.
  EXPECT_EQ(snap.histograms.count("sample.frontier_dup_ratio"), 0u);
  const auto agg = tracer.Aggregate();
  EXPECT_EQ(agg.at("sample/neighborhood").count, 1u);
  EXPECT_EQ(agg.at("sample/hop0").count, 1u);
  EXPECT_EQ(agg.at("sample/hop1").count, 1u);
  // Hop spans nest inside the whole-call span.
  EXPECT_EQ(agg.at("sample/hop0").depth, 2u);
}

// ---------------------------------------------------------------------------
// Per-thread handle cache (obs::DefaultHandles)

AttributedGraph HandleCacheGraph() {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 600;
  cfg.avg_degree = 6;
  cfg.seed = 11;
  return std::move(gen::ChungLu(cfg)).value();
}

constexpr size_t kHandleDim = 4;
const std::vector<uint32_t> kHandleFans{3, 2};

/// What one SampleBlock + GatherBlockFeatures call must record.
struct ExpectedWork {
  uint64_t blocks = 0;
  uint64_t gather_bytes = 0;
};

/// One instrumented request: sample a block, gather its features.
void SampleAndGather(const AttributedGraph& graph, uint64_t seed,
                     ExpectedWork* work) {
  LocalNeighborSource source(graph);
  block::GraphFeatureSource features(graph, kHandleDim);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, seed);
  const std::vector<VertexId> roots{
      static_cast<VertexId>(seed % 600), static_cast<VertexId>(seed * 7 % 600),
      static_cast<VertexId>(seed * 13 % 600), 5};
  const block::SampledBlock blk = sampler.SampleBlock(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, kHandleFans);
  const nn::Matrix x =
      block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);
  work->blocks += 1;
  work->gather_bytes += x.size() * sizeof(float);
}

void ExpectRecorded(const obs::MetricsRegistry& registry,
                    const ExpectedWork& work) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const uint64_t hops = work.blocks * kHandleFans.size();
  EXPECT_EQ(snap.histograms.at("block.build_us").count, work.blocks);
  EXPECT_EQ(snap.histograms.at("sample.frontier_dup_ratio").count, hops);
  EXPECT_EQ(snap.histograms.at("sample.hop_latency_us").count, hops);
  EXPECT_EQ(snap.histograms.at("sample.frontier_size").count, hops);
  EXPECT_EQ(snap.counters.at("block.gather_bytes"), work.gather_bytes);
}

// A registry destroyed and re-created at the same address must be
// re-resolved: records land in the new one, never in freed memory (ASan
// reports the use-after-free if a stale handle survives).
TEST(HandleCacheTest, RegistryReusingFreedAddressIsReResolved) {
  const AttributedGraph graph = HandleCacheGraph();
  std::optional<obs::MetricsRegistry> slot;

  slot.emplace();
  obs::MetricsRegistry* const first = &*slot;
  obs::SetDefault(first);
  ExpectedWork work_a;
  SampleAndGather(graph, 1, &work_a);
  ExpectRecorded(*slot, work_a);
  obs::SetDefault(nullptr);
  slot.reset();

  slot.emplace();
  ASSERT_EQ(&*slot, first);
  obs::SetDefault(&*slot);
  ExpectedWork work_b;
  SampleAndGather(graph, 2, &work_b);
  SampleAndGather(graph, 3, &work_b);
  obs::SetDefault(nullptr);
  ExpectRecorded(*slot, work_b);
}

// Workers keep sampling while the main thread attaches and detaches
// registries. After a quiescent point and a final attach (of a registry
// re-created at a freed address), each counter of the final registry equals
// exactly the work done since, and the churn registries receive nothing.
TEST(HandleCacheTest, AttachDetachUnderConcurrentSampling) {
  constexpr int kWorkers = 4;
  constexpr int kChurn = 200;
  constexpr int kFinalCalls = 20;
  const AttributedGraph graph = HandleCacheGraph();
  std::array<std::optional<obs::MetricsRegistry>, 3> regs;
  for (auto& r : regs) r.emplace();

  std::atomic<int> phase{0};  // 0 churn, 1 settle and park, 2 final work
  std::atomic<int> parked{0};
  std::atomic<int> churn_calls{0};
  std::vector<ExpectedWork> final_work(kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ExpectedWork churn_work;
      uint64_t seed = 100 * static_cast<uint64_t>(w + 1);
      while (phase.load(std::memory_order_acquire) == 0) {
        SampleAndGather(graph, ++seed, &churn_work);
        churn_calls.fetch_add(1, std::memory_order_relaxed);
      }
      // Settle: one call with regs[0] attached, so every worker's cache
      // points into the registry about to be freed.
      SampleAndGather(graph, ++seed, &churn_work);
      parked.fetch_add(1, std::memory_order_acq_rel);
      while (phase.load(std::memory_order_acquire) != 2) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kFinalCalls; ++i) {
        SampleAndGather(graph, ++seed, &final_work[w]);
      }
    });
  }
  // Toggle at least kChurn times and until the workers have sampled across
  // the toggles.
  for (int i = 0;
       i < kChurn || churn_calls.load(std::memory_order_relaxed) < kChurn;
       ++i) {
    obs::SetDefault(i % 2 == 0 ? &*regs[(i / 2) % regs.size()] : nullptr);
    std::this_thread::yield();
  }
  obs::SetDefault(&*regs[0]);
  phase.store(1, std::memory_order_release);
  while (parked.load(std::memory_order_acquire) != kWorkers) {
    std::this_thread::yield();
  }

  // Quiescent: no worker is inside a call. Re-create regs[0] in place and
  // attach it; the workers' caches still point into the old one.
  obs::SetDefault(nullptr);
  obs::MetricsRegistry* const old_address = &*regs[0];
  regs[0].reset();
  regs[0].emplace();
  ASSERT_EQ(&*regs[0], old_address);
  obs::SetDefault(&*regs[0]);
  const obs::MetricsSnapshot before1 = regs[1]->Snapshot();
  const obs::MetricsSnapshot before2 = regs[2]->Snapshot();

  phase.store(2, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  obs::SetDefault(nullptr);

  ExpectedWork total;
  for (const ExpectedWork& w : final_work) {
    total.blocks += w.blocks;
    total.gather_bytes += w.gather_bytes;
  }
  ASSERT_EQ(total.blocks, uint64_t{kWorkers} * kFinalCalls);
  ExpectRecorded(*regs[0], total);
  EXPECT_EQ(regs[1]->Snapshot().counters, before1.counters);
  EXPECT_EQ(regs[2]->Snapshot().counters, before2.counters);
}

}  // namespace
}  // namespace aligraph
