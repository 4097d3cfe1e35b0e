/// \file workload_khop.cc
/// \brief khop_cluster: k-hop reads against the simulated Cluster built from
/// the train_ooc graph (4 workers, hybrid partitioner, the paper's
/// importance cache at tau = 10 on 1- and 2-hop importance), so reads take
/// the local, replica, cache and remote paths.
///
/// Two closed-loop reader threads with zero think time, each acting as a
/// different WorkerId, loop over NeighborhoodSampler::SampleBlock (16
/// Zipf(0.9)-over-degree roots, fans 10/5) through DistributedNeighborSource
/// and then GatherBlockFeatures through ClusterFeatureSource.
///
///   ro  readers only, for half the run's seconds. Runs first: updates are
///       permanent.
///   rw  the same readers beside one open-loop writer applying 256-edge
///       ApplyUpdateBatch batches (3 inserts : 1 remove, Zipf-hot sources,
///       removes of existing edges) at 20 batches/s. The phase runs a fixed
///       count of batches (10 per window), so every run with the same
///       --seconds reaches the same epoch.
///
/// Each phase is a run of half-second windows. Between windows the readers
/// and the writer pause while the host speed is sampled. throughput_per_s
/// and p50_us come from the windows of both phases, so read-path and
/// update-interference changes both move them; p99_us from the ro phase's
/// windows. Each window is scaled to nominal host speed by the samples on
/// either side of it (see HostSpeed).
/// Update latency is timed from each batch's due time.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "gen/powerlaw.h"
#include "gen/zipf.h"
#include "layers.h"
#include "partition/partitioner.h"
#include "serve/load_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace aligraph;

constexpr VertexId kVertices = 1250000;  // the train_ooc graph
constexpr double kAvgDegree = 8.0;
constexpr uint32_t kWorkers = 4;
constexpr double kImportanceTau = 10.0;
constexpr size_t kFeatureDim = 32;
constexpr size_t kRootsPerBlock = 16;
constexpr size_t kReaders = 2;
constexpr size_t kRootListsPerReader = 8192;
constexpr size_t kUpdateBatch = 256;
constexpr double kUpdatesPerSecond = 20.0;
constexpr int kSetupReps = 3;
constexpr size_t kSaveEvery = 32;
constexpr size_t kSavedLists = 64;
constexpr size_t kReplayBlocks = 300;
constexpr double kWindowSeconds = 0.5;
constexpr size_t kUpdatesPerWindow = 10;  // 20 batches/s
const std::vector<uint32_t> kFans = {10, 5};

struct ReaderStats {
  std::vector<double> latency_us;
  double sample_ns = 0;
  double gather_ns = 0;
  uint64_t partial = 0;
  std::vector<std::vector<VertexId>> saved;  ///< sampled frontiers
};

/// One window of a phase: its wall interval and, per reader, how many
/// blocks that reader had finished when the window closed.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<size_t> blocks_done;
};

/// A phase's closed-loop readers. Each reader keeps its sources, sampler
/// and root position for the whole phase, but its thread parks between
/// windows, so the host-speed samples taken there see an idle workload.
class ReaderCrew {
 public:
  ReaderCrew(Cluster* cluster,
             const std::vector<std::vector<std::vector<VertexId>>>& roots,
             uint64_t seed, CommStats* stats)
      : stats_(kReaders) {
    for (size_t r = 0; r < kReaders; ++r) {
      threads_.emplace_back([=, this, &roots] {
        Loop(cluster, static_cast<WorkerId>(r), roots[r], Mix64(seed + r),
             stats, &stats_[r]);
      });
    }
  }

  ~ReaderCrew() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ReaderCrew(const ReaderCrew&) = delete;
  ReaderCrew& operator=(const ReaderCrew&) = delete;

  /// Runs every reader while `during` runs on the calling thread, then
  /// stops them and waits until each one is parked again.
  Window RunWindow(const std::function<void()>& during) {
    Window w;
    w.start_ns = NowNanos();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(false);
      running_ = kReaders;
      ++generation_;
    }
    wake_.notify_all();
    during();
    stop_.store(true);
    {
      std::unique_lock<std::mutex> lock(mu_);
      parked_.wait(lock, [this] { return running_ == 0; });
    }
    w.end_ns = NowNanos();
    for (const ReaderStats& s : stats_) {
      w.blocks_done.push_back(s.latency_us.size());
    }
    return w;
  }

  /// Every block of the phase so far; read only between windows.
  const std::vector<ReaderStats>& stats() const { return stats_; }

 private:
  void Loop(Cluster* cluster, WorkerId worker,
            const std::vector<std::vector<VertexId>>& roots, uint64_t seed,
            CommStats* stats, ReaderStats* out) {
    DistributedNeighborSource source(*cluster, worker, stats);
    block::ClusterFeatureSource features(*cluster, worker, kFeatureDim, stats);
    NeighborhoodSampler hood(NeighborStrategy::kUniform, seed);
    size_t k = 0;
    uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return quit_ || generation_ != seen; });
        if (quit_) return;
        seen = generation_;
      }
      for (; !stop_.load(std::memory_order_relaxed); ++k) {
        ReadBlock(source, features, &hood, roots[k % roots.size()], k, out);
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) parked_.notify_all();
    }
  }

  /// One block: SampleBlock, then GatherBlockFeatures.
  static void ReadBlock(NeighborSource& source, block::FeatureSource& features,
                        NeighborhoodSampler* hood,
                        const std::vector<VertexId>& roots, size_t k,
                        ReaderStats* out) {
    obs::ScopedSpan block_span("khop/block");
    const int64_t t0 = NowNanos();
    block::SampledBlock blk;
    {
      obs::ScopedSpan s("khop/sample");
      blk = hood->SampleBlock(source, roots,
                              NeighborhoodSampler::kAllEdgeTypes, kFans);
    }
    const int64_t t1 = NowNanos();
    {
      obs::ScopedSpan s("khop/gather");
      const nn::Matrix x =
          block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);
    }
    const int64_t t2 = NowNanos();
    out->latency_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
    out->sample_ns += static_cast<double>(t1 - t0);
    out->gather_ns += static_cast<double>(t2 - t1);
    if (blk.partial()) ++out->partial;
    if (k % kSaveEvery == 0 && out->saved.size() < kSavedLists) {
      out->saved.emplace_back(blk.globals().begin(), blk.globals().end());
    }
  }

  std::vector<ReaderStats> stats_;
  std::mutex mu_;
  std::condition_variable wake_;    ///< readers wait here between windows
  std::condition_variable parked_;  ///< RunWindow waits here for the readers
  uint64_t generation_ = 0;         ///< bumped by every window; guarded by mu_
  size_t running_ = 0;              ///< readers still in the window; mu_
  bool quit_ = false;               ///< guarded by mu_
  std::atomic<bool> stop_{true};
  std::vector<std::thread> threads_;  ///< joined by the destructor
};

struct Phase {
  std::vector<ReaderStats> readers;
  std::vector<Window> windows;

  double WallSeconds() const {
    double s = 0;
    for (const Window& w : windows) {
      s += static_cast<double>(w.end_ns - w.start_ns);
    }
    return s * 1e-9;
  }

  std::vector<double> Latencies() const {
    std::vector<double> all;
    for (const ReaderStats& r : readers) {
      all.insert(all.end(), r.latency_us.begin(), r.latency_us.end());
    }
    return all;
  }
};

/// Runs a phase of `windows` windows. Before the first window and after
/// each one the readers are parked and the host speed is sampled.
/// `during(w)` runs on the calling thread while window w's readers run.
Phase RunPhase(Cluster* cluster,
               const std::vector<std::vector<std::vector<VertexId>>>& roots,
               uint64_t seed, CommStats* stats, size_t windows,
               HostSpeed* speed, const std::function<void(size_t)>& during) {
  Phase phase;
  {
    ReaderCrew crew(cluster, roots, seed, stats);
    speed->Sample();
    for (size_t w = 0; w < windows; ++w) {
      phase.windows.push_back(crew.RunWindow([&] { during(w); }));
      speed->Sample();
    }
    phase.readers = crew.stats();
  }
  return phase;
}

/// Raw block rate and latency percentiles of every window of a phase, and
/// the host speed around it.
struct WindowStats {
  RateLatency raw;
  double speed = 1;
};

std::vector<WindowStats> PhaseWindows(const Phase& phase,
                                      const HostSpeed& speed) {
  std::vector<WindowStats> out;
  for (size_t w = 0; w < phase.windows.size(); ++w) {
    const Window& win = phase.windows[w];
    std::vector<double> lat;
    for (size_t r = 0; r < phase.readers.size(); ++r) {
      const size_t from = w == 0 ? 0 : phase.windows[w - 1].blocks_done[r];
      const std::vector<double>& all = phase.readers[r].latency_us;
      lat.insert(lat.end(), all.begin() + static_cast<ptrdiff_t>(from),
                 all.begin() + static_cast<ptrdiff_t>(win.blocks_done[r]));
    }
    const double wall_s = static_cast<double>(win.end_ns - win.start_ns) * 1e-9;
    out.push_back({{static_cast<double>(lat.size()) / wall_s,
                    Percentile(lat, 50), Percentile(lat, 99)},
                   speed.Around(win.start_ns, win.end_ns)});
  }
  return out;
}

/// Update stream: `batches` batches of kUpdateBatch edits, 3 inserts to 1
/// remove. Sources are Zipf(0.9)-hot over the degree ranking; a remove
/// deletes an existing edge never removed before, so none is skipped.
std::vector<std::vector<EdgeUpdate>> MakeUpdates(
    const AttributedGraph& graph, const serve::LoadGenerator& ranking,
    size_t batches, uint64_t seed) {
  gen::ZipfConfig zc;
  zc.num_ranks = graph.num_vertices();
  zc.exponent = 0.9;
  zc.seed = seed;
  const gen::ZipfSampler zipf(zc);
  Rng rng(seed);
  std::unordered_set<uint64_t> removed;  // (src << 32) | position
  std::vector<std::vector<EdgeUpdate>> out(batches);
  for (auto& batch : out) {
    while (batch.size() < kUpdateBatch) {
      EdgeUpdate u;
      u.src = ranking.VertexAtRank(zipf.Sample(rng));
      const auto nbs = graph.OutNeighbors(u.src);
      if (rng.Uniform(4) == 0 && !nbs.empty()) {
        const size_t pos = rng.Uniform(nbs.size());
        if (!removed.insert((uint64_t{u.src} << 32) | pos).second) continue;
        u.kind = EdgeUpdate::Kind::kRemove;
        u.dst = nbs[pos].dst;
      } else {
        u.kind = EdgeUpdate::Kind::kInsert;
        u.dst = static_cast<VertexId>(rng.Uniform(graph.num_vertices()));
      }
      batch.push_back(u);
    }
  }
  return out;
}

bool SameAdjacency(std::span<const Neighbor> a, std::span<const Neighbor> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dst != b[i].dst || a[i].weight != b[i].weight ||
        a[i].attr != b[i].attr) {
      return false;
    }
  }
  return true;
}

/// Per-vertex and batched cluster read probes over the sampled frontiers.
void ClusterProbes(Cluster& cluster, const AttributedGraph& graph,
                   const std::vector<std::vector<VertexId>>& frontiers,
                   Report* report) {
  CommStats stats;
  const WorkerId w = 0;
  std::vector<double> batch_us, attr_us;
  BatchResult out;
  std::vector<AttrId> ids;
  for (const auto& f : frontiers) {
    obs::ScopedSpan s("cluster/batch_probe");
    int64_t t0 = NowNanos();
    cluster.GetNeighborsBatch(w, f, kAllEdgeTypes, &out, &stats);
    batch_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
    t0 = NowNanos();
    cluster.GetVertexAttrBatch(w, f, &ids, &stats);
    attr_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
  }
  report->Extra("cluster.batch_read_us", Median(batch_us), "us");
  report->Extra("cluster.attr_batch_us", Median(attr_us), "us");

  // Owned reads through the cluster vs the same vertices' CSR reads,
  // alternating which goes first.
  std::vector<VertexId> owned;
  for (const auto& f : frontiers) {
    for (VertexId v : f) {
      if (cluster.OwnerOf(v) == w) owned.push_back(v);
    }
  }
  double local_ns = 0, csr_ns = 0;
  uint64_t sink = 0;
  for (int r = 0; r < 4; ++r) {
    for (int side = 0; side < 2; ++side) {
      const bool via_cluster = (r + side) % 2 == 0;
      const int64_t t0 = NowNanos();
      for (VertexId v : owned) {
        sink += Touch(via_cluster ? cluster.GetNeighbors(w, v, &stats)
                                  : graph.OutNeighbors(v));
      }
      (via_cluster ? local_ns : csr_ns) += static_cast<double>(NowNanos() - t0);
    }
  }
  const double reads =
      4.0 * static_cast<double>(std::max<size_t>(owned.size(), 1));
  report->Extra("cluster.local_read_ns", local_ns / reads, "ns");
  report->Extra("cluster.local_over_csr", local_ns / std::max(csr_ns, 1.0),
                "ratio");

  constexpr int kPins = 100000;
  const int64_t t0 = NowNanos();
  for (int i = 0; i < kPins; ++i) {
    EpochPin pin = cluster.PinEpoch();
    sink += pin.epoch();
  }
  report->Extra("epoch.pin_ns",
                static_cast<double>(NowNanos() - t0) / kPins, "ns");
  g_sink = g_sink + sink;
}

}  // namespace

void RunKhopCluster(const Args& args, obs::MetricsRegistry* registry,
                    Report* report) {
  std::unique_ptr<AttributedGraph> graph;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<serve::LoadGenerator> ranking;
  double cache_rate = 0;
  HostSpeed speed;
  // The registry is attached before Cluster::Build, which resolves the
  // cluster's counter handles.
  TimeSetup(kSetupReps, &speed, report, [&] {
    ranking.reset();
    cluster.reset();
    graph.reset();
    obs::ScopedSpan s("setup");
    gen::ChungLuConfig g;
    g.num_vertices = kVertices;
    g.avg_degree = kAvgDegree;
    g.seed = args.seed;
    graph = std::make_unique<AttributedGraph>(
        std::move(gen::ChungLu(g)).value());
    auto partitioner = std::move(MakePartitioner("hybrid")).value();
    cluster = std::make_unique<Cluster>(
        std::move(Cluster::Build(*graph, *partitioner, kWorkers)).value());
    cache_rate = cluster->InstallImportanceCache(
        2, {kImportanceTau, kImportanceTau});
    serve::LoadConfig lc;
    lc.mode = serve::LoadConfig::Mode::kClosed;  // roots only
    lc.roots_per_request = kRootsPerBlock;
    lc.zipf_exponent = 0.9;
    lc.seed = args.seed + 17;
    ranking = std::make_unique<serve::LoadGenerator>(*graph, lc);
  });
  std::printf("graph: %u vertices, %zu edges | %u workers, cache rate %.3f\n",
              graph->num_vertices(), graph->num_edges(), kWorkers, cache_rate);

  // Inputs: each reader's root lists and the update stream.
  std::vector<std::vector<std::vector<VertexId>>> roots(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    for (size_t k = 0; k < kRootListsPerReader; ++k) {
      roots[r].push_back(ranking->RootsFor(r * kRootListsPerReader + k));
    }
  }
  // Each phase lasts half the run's seconds, in whole windows.
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(std::lround(args.seconds / 2.0 / kWindowSeconds)));
  const auto updates = MakeUpdates(*graph, *ranking,
                                   windows * kUpdatesPerWindow, args.seed + 23);
  const auto window = std::chrono::duration<double>(kWindowSeconds);

  CommStats stats;
  const CommStats::Snapshot comm0 = stats.snapshot();

  // --- ro
  const Phase ro = RunPhase(cluster.get(), roots, args.seed + 1, &stats,
                            windows, &speed, [&](size_t) {
                              std::this_thread::sleep_for(window);
                            });

  // Sampled frontiers read through the cluster must equal the CSR.
  {
    CommStats check_stats;
    for (size_t r = 0; r < kReaders; ++r) {
      for (const auto& f : ro.readers[r].saved) {
        bool same = true;
        for (size_t i = 0; i < f.size() && i < 64; ++i) {
          same = same && SameAdjacency(
                             cluster->GetNeighbors(static_cast<WorkerId>(r),
                                                   f[i], &check_stats),
                             graph->OutNeighbors(f[i]));
        }
        report->Check(same, "cluster adjacency equals the CSR");
      }
    }
  }

  if (args.trace) {
    std::vector<std::vector<VertexId>> frontiers;
    for (const ReaderStats& r : ro.readers) {
      frontiers.insert(frontiers.end(), r.saved.begin(), r.saved.end());
    }
    ClusterProbes(*cluster, *graph, frontiers, report);

    CommStats replay_stats;
    DistributedNeighborSource source(*cluster, 0, &replay_stats);
    block::ClusterFeatureSource features(*cluster, 0, kFeatureDim,
                                         &replay_stats);
    LayerReplay rp;
    rp.graph = graph.get();
    rp.source = &source;
    rp.features = &features;
    rp.roots = [&](size_t i) { return roots[0][i % roots[0].size()]; };
    rp.sampler_seed = [&](size_t i) { return Mix64(args.seed * 131 + i); };
    rp.fans = kFans;
    rp.batches = kReplayBlocks;
    rp.dim = 32;
    rp.row_cache = false;
    rp.seed = args.seed;
    rp.registry = registry;
    MeasureLayers(rp, report);
  }

  // --- rw: readers plus one open-loop writer. Each window's batches are
  // due at a fixed period from the window's start; the writer pauses with
  // the readers between windows.
  std::vector<double> from_due_ms, service_ms, lag_ms;
  uint64_t pruned = 0, skipped = 0, update_failures = 0;
  const Phase rw = RunPhase(cluster.get(), roots, args.seed + 2, &stats,
                            windows, &speed, [&](size_t w) {
    const int64_t start = NowNanos();
    const int64_t period = static_cast<int64_t>(1e9 / kUpdatesPerSecond);
    for (size_t j = 0; j < kUpdatesPerWindow; ++j) {
      const size_t i = w * kUpdatesPerWindow + j;
      const int64_t due = start + static_cast<int64_t>(j) * period;
      const int64_t wait = due - NowNanos();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const int64_t t0 = NowNanos();
      UpdateReport rep;
      Status st;
      {
        obs::ScopedSpan s("khop/update");
        st = cluster->ApplyUpdateBatch(updates[i], &rep);
      }
      const int64_t t1 = NowNanos();
      lag_ms.push_back(static_cast<double>(t0 - due) * 1e-6);
      service_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      from_due_ms.push_back(static_cast<double>(t1 - due) * 1e-6);
      pruned += rep.versions_pruned;
      skipped += rep.skipped;
      if (!st.ok()) ++update_failures;
    }
    const int64_t rest = start + static_cast<int64_t>(kWindowSeconds * 1e9) -
                         NowNanos();
    if (rest > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(rest));
  });
  const CommStats::Snapshot comm = stats.snapshot().Delta(comm0);

  // Accounting: every block and update batch is an operation.
  uint64_t blocks = 0, partial = 0;
  double sample_ns = 0, gather_ns = 0;
  for (const Phase* p : {&ro, &rw}) {
    uint64_t phase_blocks = 0, phase_partial = 0;
    for (const ReaderStats& r : p->readers) {
      phase_blocks += r.latency_us.size();
      phase_partial += r.partial;
      sample_ns += r.sample_ns;
      gather_ns += r.gather_ns;
    }
    const std::string name = p == &ro ? "khop.ro" : "khop.rw";
    report->Extra(name + ".attempted", static_cast<double>(phase_blocks),
                  "count");
    report->Extra(name + ".failed", static_cast<double>(phase_partial),
                  "count");
    blocks += phase_blocks;
    partial += phase_partial;
  }
  report->Extra("update.attempted", static_cast<double>(updates.size()),
                "count");
  report->Extra("update.failed", static_cast<double>(update_failures),
                "count");
  report->Attempt(blocks + updates.size());
  report->Fail(partial, "k-hop blocks came back partial");
  report->Fail(update_failures, "ApplyUpdateBatch returned an error");
  report->Check(skipped == 0, "every update applied (" +
                                  std::to_string(skipped) + " skipped)");
  const uint64_t epoch = cluster->current_epoch();
  std::printf("khop.rw final epoch = %llu\n",
              static_cast<unsigned long long>(epoch));
  report->Check(epoch == updates.size(),
                "khop.rw reaches epoch " + std::to_string(updates.size()));

  // End-to-end: each phase's half-second windows, scaled by the host speed
  // sampled around them; the median window of each phase, then the mean of
  // the two phases (they last equally long), so read-path and
  // update-interference changes both move the rate and p50. p99 is the ro
  // phase's alone: under updates each DirtyMap copy stalls a burst of
  // blocks, and how many such bursts land in the top 1% swings by 2x from
  // run to run (khop.rw.p99_us reports it).
  RateLatency scaled, raw;
  for (const Phase* phase : {&ro, &rw}) {
    const double p99_weight = phase == &ro ? 1.0 : 0.0;
    std::vector<double> r, p50, p99, raw_r, raw_p50, raw_p99;
    for (const WindowStats& w : PhaseWindows(*phase, speed)) {
      raw_r.push_back(w.raw.rate_per_s);
      raw_p50.push_back(w.raw.p50_us);
      raw_p99.push_back(w.raw.p99_us);
      r.push_back(ScaleRate(w.raw.rate_per_s, w.speed));
      p50.push_back(ScaleLatency(w.raw.p50_us, w.speed));
      p99.push_back(ScaleLatency(w.raw.p99_us, w.speed));
    }
    scaled.rate_per_s += Median(r) / 2;
    scaled.p50_us += Median(p50) / 2;
    scaled.p99_us += Median(p99) * p99_weight;
    raw.rate_per_s += Median(raw_r) / 2;
    raw.p50_us += Median(raw_p50) / 2;
    raw.p99_us += Median(raw_p99) * p99_weight;
  }
  ReportScaled(report, scaled, raw, speed.Median());

  const std::vector<double> ro_lat = ro.Latencies();
  const std::vector<double> rw_lat = rw.Latencies();
  report->Extra("khop.ro.blocks_per_s",
                static_cast<double>(ro_lat.size()) / ro.WallSeconds(), "1/s");
  report->Extra("khop.ro.p50_us", Percentile(ro_lat, 50), "us");
  report->Extra("khop.ro.p99_us", Percentile(ro_lat, 99), "us");
  report->Extra("khop.rw.blocks_per_s",
                static_cast<double>(rw_lat.size()) / rw.WallSeconds(), "1/s");
  report->Extra("khop.rw.p99_us", Percentile(rw_lat, 99), "us");
  report->Extra("update.p50_ms", Percentile(from_due_ms, 50), "ms");
  report->Extra("update.p99_ms", Percentile(from_due_ms, 99), "ms");
  report->Extra("update.generator_lag_ms", Percentile(lag_ms, 99), "ms");
  report->Extra("update.final_epoch", static_cast<double>(epoch), "count");
  report->Extra("cluster.apply_update_p50_ms", Percentile(service_ms, 50),
                "ms");
  report->Extra("cluster.apply_update_p99_ms", Percentile(service_ms, 99),
                "ms");
  report->Extra("cluster.versions_pruned", static_cast<double>(pruned),
                "count");
  const double reads = static_cast<double>(comm.local_reads +
                                           comm.replica_reads +
                                           comm.cache_hits + comm.remote_reads);
  report->Extra("cluster.remote_share",
                static_cast<double>(comm.remote_reads) / std::max(reads, 1.0),
                "share");
  report->Extra("cluster.remote_batches_per_block",
                static_cast<double>(comm.remote_batches) /
                    static_cast<double>(std::max<uint64_t>(blocks, 1)),
                "count");

  // The readers are the stages here: sample and gather busy shares over
  // both readers' wall time; there is no compute stage.
  const double reader_ns = static_cast<double>(kReaders) *
                           (ro.WallSeconds() + rw.WallSeconds()) * 1e9;
  report->Layer("pipeline.busy_share.sample", sample_ns / reader_ns, "share");
  report->Layer("pipeline.busy_share.gather", gather_ns / reader_ns, "share");
  report->Layer("pipeline.busy_share.compute", 0.0, "share");
}

}  // namespace perfbench
