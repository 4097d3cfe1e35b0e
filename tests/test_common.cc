// Unit and property tests for the common utilities: RNG, alias table, LRU
// cache, thread pool, summaries, the power-law fitter and the huge-page
// allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>

#include "common/alias_table.h"
#include "common/histogram.h"
#include "common/huge_pages.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "proptest.h"

namespace aligraph {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, WeightedIndexBiased) {
  Rng rng(19);
  std::vector<double> w{1.0, 9.0};
  int ones = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.WeightedIndex(w) == 1) ++ones;
  }
  EXPECT_NEAR(ones / 5000.0, 0.9, 0.03);
}

TEST(AliasTableTest, EmptyWeightsYieldEmptyTable) {
  AliasTable t{std::vector<double>{}};
  EXPECT_TRUE(t.empty());
  AliasTable zeros{std::vector<double>{0, 0, 0}};
  EXPECT_TRUE(zeros.empty());
}

TEST(AliasTableTest, SingleEntryAlwaysSampled) {
  AliasTable t{std::vector<double>{5.0}};
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(t.Sample(rng), 0u);
}

TEST(AliasTableTest, MatchesDistribution) {
  std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable t(w);
  Rng rng(23);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[t.Sample(rng)];
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), w[i] / 10.0, 0.01)
        << "bucket " << i;
  }
}

TEST(AliasTableTest, UnnormalizedEqualWeightsUniform) {
  AliasTable t(std::vector<double>(8, 123.0));
  Rng rng(29);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 80000; ++i) ++counts[t.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c / 80000.0, 0.125, 0.01);
}

TEST(AliasTableTest, RebuildReplacesDistribution) {
  AliasTable t(std::vector<double>{1.0, 0.0});
  Rng rng(31);
  EXPECT_EQ(t.Sample(rng), 0u);
  t.Build({0.0, 1.0});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(t.Sample(rng), 1u);
}

// Property: for arbitrary weight vectors spanning orders of magnitude, the
// empirical sampling frequency of every bucket tracks its normalized
// weight. This is the alias method's whole contract; the seeded sweep
// covers weight shapes no hand-written case would.
ALIGRAPH_PROP(AliasTableProps, EmpiricalFrequencyTracksWeights, 12) {
  const size_t buckets = 2 + ctx.rng.Uniform(30);
  const std::vector<double> w = proptest::RandomWeights(ctx, buckets);
  double total = 0;
  for (const double x : w) total += x;

  AliasTable t(w);
  Rng draw(ctx.rng.Next());
  std::vector<uint64_t> counts(buckets, 0);
  const uint64_t n = 60000;
  for (uint64_t i = 0; i < n; ++i) ++counts[t.Sample(draw)];
  for (size_t i = 0; i < buckets; ++i) {
    const double expected = w[i] / total;
    const double got = static_cast<double>(counts[i]) / n;
    // Normal-approximation bound: ~6 sigma keeps false failures out of a
    // seeded sweep while still catching a biased table.
    const double sigma = std::sqrt(expected * (1 - expected) / n);
    EXPECT_NEAR(got, expected, 6 * sigma + 1e-4) << "bucket " << i;
  }
}

// Property: the two-pass batched draw is BIT-IDENTICAL to the scalar
// Sample loop on the same RNG stream, for arbitrary weight shapes and
// batch sizes — including batches larger than the table and a batch split
// across multiple SampleBatch calls (the stream must advance exactly two
// draws per sample either way).
ALIGRAPH_PROP(AliasTableProps, SampleBatchBitIdenticalToScalarLoop, 12) {
  const size_t buckets = 1 + ctx.rng.Uniform(40);
  const std::vector<double> w = proptest::RandomWeights(ctx, buckets);
  AliasTable t(w);
  const uint64_t seed = ctx.rng.Next();
  const size_t total = 1 + ctx.rng.Uniform(500);

  Rng scalar_rng(seed);
  std::vector<size_t> scalar(total);
  for (size_t& s : scalar) s = t.Sample(scalar_rng);

  Rng batch_rng(seed);
  std::vector<size_t> batched(total);
  AliasTable::BatchScratch scratch;
  // Split the batch at a random point: draws must not depend on batching
  // boundaries.
  const size_t split = ctx.rng.Uniform(total + 1);
  t.SampleBatch(batch_rng, std::span<size_t>(batched).first(split), &scratch);
  t.SampleBatch(batch_rng, std::span<size_t>(batched).subspan(split),
                &scratch);
  EXPECT_EQ(batched, scalar);
  // The streams are in lockstep afterwards too.
  EXPECT_EQ(batch_rng.Next(), scalar_rng.Next());
}

TEST(AliasTableTest, SampleBatchSingleEntryAndAllEqualWeights) {
  // Regression: degenerate tables where every draw accepts. The batch path
  // must still consume (Uniform, NextDouble) per draw and return the same
  // indices as the scalar loop.
  for (const std::vector<double>& w :
       {std::vector<double>{7.0}, std::vector<double>(6, 123.0)}) {
    AliasTable t(w);
    Rng a(99), b(99);
    std::vector<size_t> batched(64);
    t.SampleBatch(a, batched);
    for (const size_t s : batched) EXPECT_LT(s, w.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i], t.Sample(b)) << "draw " << i;
    }
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// The pair draw behind the Chung-Lu generator: chunks of (a, b) pairs
// must reproduce the interleaved scalar loop on the same stream, whatever
// the chunk split, including degenerate tables where every draw accepts.
ALIGRAPH_PROP(AliasTableProps, SamplePairBatchBitIdenticalToScalarLoop, 12) {
  auto random_table = [&ctx]() {
    switch (ctx.rng.Uniform(3)) {
      case 0:
        return AliasTable(std::vector<double>{3.5});  // single entry
      case 1:
        return AliasTable(std::vector<double>(1 + ctx.rng.Uniform(9), 2.0));
      default:
        return AliasTable(
            proptest::RandomWeights(ctx, 1 + ctx.rng.Uniform(40)));
    }
  };
  const AliasTable a = random_table();
  const AliasTable b = random_table();
  const uint64_t seed = ctx.rng.Next();
  const size_t total = 1 + ctx.rng.Uniform(500);

  Rng scalar_rng(seed);
  std::vector<size_t> scalar_a(total), scalar_b(total);
  for (size_t j = 0; j < total; ++j) {
    scalar_a[j] = a.Sample(scalar_rng);
    scalar_b[j] = b.Sample(scalar_rng);
  }

  Rng batch_rng(seed);
  std::vector<size_t> batched_a(total), batched_b(total);
  AliasTable::BatchScratch scratch;
  const size_t split = ctx.rng.Uniform(total + 1);
  AliasTable::SamplePairBatch(a, b, batch_rng,
                              std::span<size_t>(batched_a).first(split),
                              std::span<size_t>(batched_b).first(split),
                              &scratch);
  AliasTable::SamplePairBatch(a, b, batch_rng,
                              std::span<size_t>(batched_a).subspan(split),
                              std::span<size_t>(batched_b).subspan(split),
                              &scratch);
  EXPECT_EQ(batched_a, scalar_a);
  EXPECT_EQ(batched_b, scalar_b);
  EXPECT_EQ(batch_rng.Next(), scalar_rng.Next());
}

TEST(AliasTableTest, SampleBatchEmptyOutputIsANoop) {
  AliasTable t(std::vector<double>{1.0, 2.0});
  Rng rng(5);
  const uint64_t before = [&] { Rng copy = rng; return copy.Next(); }();
  t.SampleBatch(rng, {});
  EXPECT_EQ(rng.Next(), before) << "empty batch must not consume the stream";
  // An EMPTY TABLE with an empty request is also fine (no draw happens).
  AliasTable empty;
  empty.SampleBatch(rng, {});
}

TEST(AliasTableTest, SampleBatchMatchesDistributionChiSquared) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable t(w);
  Rng rng(41);
  std::vector<size_t> draws(100000);
  AliasTable::BatchScratch scratch;
  t.SampleBatch(rng, draws, &scratch);
  std::vector<uint64_t> counts(w.size(), 0);
  for (const size_t d : draws) ++counts[d];
  // Pearson chi-squared against the normalized weights; 3 dof, the 99.9%
  // critical value is 16.27 — a biased batch path blows far past it.
  double chi2 = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    const double expected = static_cast<double>(draws.size()) * w[i] / 10.0;
    const double diff = static_cast<double>(counts[i]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 16.27);
}

TEST(AliasTableTest, TryBuildRejectsNanAndNegativeWeights) {
  AliasTable t;
  EXPECT_TRUE(t.TryBuild({1.0, 2.0}).ok());
  EXPECT_FALSE(t.empty());

  const Status nan_status =
      t.TryBuild({1.0, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(nan_status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(t.empty()) << "rejected build must leave the table empty";

  const Status neg_status = t.TryBuild({1.0, -0.5});
  EXPECT_EQ(neg_status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(t.empty());

  // Infinities are rejected too: they would produce a NaN normalization.
  EXPECT_FALSE(
      t.TryBuild({std::numeric_limits<double>::infinity()}).ok());

  // Zero and empty stay OK (empty table, not an error).
  EXPECT_TRUE(t.TryBuild({0.0, 0.0}).ok());
  EXPECT_TRUE(t.empty());
}

TEST(AliasTableDeathTest, BuildAbortsOnInvalidWeights) {
  EXPECT_DEATH(AliasTable(std::vector<double>{1.0, -2.0}), "negative");
  EXPECT_DEATH(
      AliasTable(std::vector<double>{
          std::numeric_limits<double>::quiet_NaN()}),
      "NaN");
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_TRUE(cache.Get(1).has_value());  // 1 is now most recent
  cache.Put(3, 30);                       // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
}

TEST(LruCacheTest, OverwriteDoesNotEvict) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Get(1), 11);
  EXPECT_TRUE(cache.Get(2).has_value());
}

TEST(LruCacheTest, TracksHitsMissesEvictions) {
  LruCache<int, int> cache(1);
  cache.Get(5);  // miss
  cache.Put(5, 1);
  cache.Get(5);  // hit
  cache.Put(6, 2);  // evicts 5
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NEAR(cache.HitRate(), 0.5, 1e-9);
}

TEST(LruCacheTest, EvictionCallbackFires) {
  LruCache<int, int> cache(1);
  int evicted_key = -1;
  cache.SetEvictionCallback([&](const int& k, int&) { evicted_key = k; });
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(evicted_key, 1);
}

TEST(LruCacheTest, ContainsDoesNotTouchRecency) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_TRUE(cache.Contains(1));
  // 1 was NOT refreshed by Contains, so it is still the LRU victim.
  cache.Put(3, 30);
  EXPECT_FALSE(cache.Get(1).has_value());
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ReusableAcrossWaits) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, DestructorRunsEveryQueuedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++count;
      });
    }
  }
  EXPECT_EQ(count.load(), 32);  // queued work drains before the join
}

TEST(SummaryTest, BasicStatistics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 2.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 4.0);
}

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Percentile(99), 0.0);
}

TEST(SummaryTest, UsableThroughConstReference) {
  Summary s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.Add(v);
  const Summary& cs = s;
  EXPECT_DOUBLE_EQ(cs.Percentile(50), 2.5);
  EXPECT_FALSE(cs.ToString().empty());
  // The lazy sort behind the const calls must not disturb the stats.
  EXPECT_DOUBLE_EQ(cs.mean(), 2.5);
  EXPECT_EQ(cs.count(), 4u);
}

TEST(PowerLawFitTest, RecoversSlopeOnSyntheticPowerLaw) {
  // Sample from Pr(X >= x) ~ x^{-(gamma-1)} via inverse transform.
  Rng rng(37);
  const double gamma = 2.5;
  std::vector<double> sample;
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.NextDouble();
    sample.push_back(std::pow(1.0 - u, -1.0 / (gamma - 1.0)));
  }
  const PowerLawFit fit = FitPowerLawSlope(sample);
  EXPECT_GT(fit.points, 5u);
  EXPECT_NEAR(fit.slope, -gamma, 0.35);
  EXPECT_GT(fit.r_squared, 0.95);
}

TEST(PowerLawFitTest, UniformSampleIsNotPowerLaw) {
  Rng rng(41);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) sample.push_back(1.0 + rng.NextDouble() * 99);
  const PowerLawFit fit = FitPowerLawSlope(sample);
  // Uniform density is flat in value, so the log-log slope is near 0
  // (clearly not a steep power law).
  EXPECT_GT(fit.slope, -1.0);
}

TEST(PowerLawFitTest, DegenerateInputs) {
  EXPECT_EQ(FitPowerLawSlope({}).points, 0u);
  EXPECT_EQ(FitPowerLawSlope({0.5, 0.2}).points, 0u);  // all below 1
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.ElapsedNanos(), 0);
  const double before = t.ElapsedMillis();
  t.Reset();
  EXPECT_LE(t.ElapsedMillis(), before + 1e3);
}

// ---------------------------------------------------------------------------
// HugePageAllocator: advice only on the 2 MB-aligned interior of a block of
// at least 4 MB, and contents exactly those of a plain std::vector.

/// Bytes of the whole huge pages inside [p, p + bytes).
size_t HugeInterior(const void* p, size_t bytes) {
  const uintptr_t mask = kHugePageBytes - 1;
  const uintptr_t at = reinterpret_cast<uintptr_t>(p);
  const uintptr_t begin = (at + mask) & ~mask;
  const uintptr_t end = (at + bytes) & ~mask;
  return end > begin ? end - begin : 0;
}

/// True when the kernel accepts MADV_HUGEPAGE (it has transparent huge
/// pages, whatever their mode), probed on a page of our own.
bool KernelAcceptsHugePageAdvice() {
  void* p = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  const bool ok = madvise(p, 4096, MADV_HUGEPAGE) == 0;
  munmap(p, 4096);
  return ok;
}

/// The mapping of this process that holds `addr`, as /proc/self/smaps
/// lists it: its range and whether it is marked MADV_HUGEPAGE (`hg` among
/// its VmFlags).
struct Mapping {
  uintptr_t lo = 0, hi = 0;
  bool advised = false;
};
std::optional<Mapping> MappingAt(uintptr_t addr) {
  std::ifstream smaps("/proc/self/smaps");
  std::optional<Mapping> found;
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      if (found) break;
      inside = lo <= addr && addr < hi;
      if (inside) found = Mapping{lo, hi, false};
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      std::istringstream flags(line.substr(8));
      std::string flag;
      while (flags >> flag) found->advised |= flag == "hg";
    }
  }
  return found;
}

TEST(HugePageAllocatorTest, AdvisesTheAlignedInteriorOfBlocksFrom4MB) {
  if (!std::ifstream("/proc/self/smaps").good()) {
    GTEST_SKIP() << "no /proc/self/smaps to read the advice from";
  }
  const bool accepted = KernelAcceptsHugePageAdvice();
  for (const size_t bytes :
       {size_t{0}, kHugePageAdviseBytes - 4096, kHugePageAdviseBytes - 1,
        kHugePageAdviseBytes, kHugePageAdviseBytes + 1,
        kHugePageAdviseBytes + 4096, 3 * kHugePageAdviseBytes + 12}) {
    SCOPED_TRACE(::testing::Message() << bytes << " bytes");
    HugePageAllocator<char> alloc;
    char* p = alloc.allocate(bytes);
    const uintptr_t at = reinterpret_cast<uintptr_t>(p);
    if (bytes < kHugePageAdviseBytes) {
      // A small block comes from operator new, which no advice reaches.
      if (bytes > 0) {
        const std::optional<Mapping> m = MappingAt(at);
        ASSERT_TRUE(m.has_value());
        EXPECT_FALSE(m->advised);
      }
      alloc.deallocate(p, bytes);
      continue;
    }
    // A large block is a page-aligned mapping of its own. Any 4 MB block
    // holds a whole aligned 2 MB page; exactly those pages are advised, and
    // the ragged ends are not.
    EXPECT_EQ(at % 4096, 0u);
    const size_t interior = HugeInterior(p, bytes);
    EXPECT_GE(interior, kHugePageBytes);
    const uintptr_t begin = (at + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    const uintptr_t end = begin + interior;
    p[0] = 1;
    p[bytes - 1] = 2;
    const std::optional<Mapping> middle = MappingAt(begin);
    ASSERT_TRUE(middle.has_value());
    EXPECT_EQ(middle->advised, accepted);
    if (accepted) {
      EXPECT_LE(middle->lo, begin);
      EXPECT_GE(middle->hi, end);
    }
    for (const uintptr_t edge : {at, end}) {
      if (edge == begin || edge == at + bytes) continue;  // no ragged end
      const std::optional<Mapping> m = MappingAt(edge);
      ASSERT_TRUE(m.has_value());
      EXPECT_FALSE(m->advised);
    }
    alloc.deallocate(p, bytes);
    // The advice went with the mapping: nothing left at that address
    // carries it.
    const std::optional<Mapping> after = MappingAt(begin);
    EXPECT_TRUE(!after.has_value() || !after->advised);
  }
}

TEST(HugePageAllocatorTest, SizedVectorsAroundTheThresholdMatchStdVector) {
  constexpr size_t kAtThreshold = kHugePageAdviseBytes / sizeof(uint32_t);
  for (const size_t n :
       {size_t{0}, kAtThreshold - 1, kAtThreshold, kAtThreshold + 1}) {
    SCOPED_TRACE(::testing::Message() << n << " elements");
    HugePageVector<uint32_t> huge(n);
    std::vector<uint32_t> plain(n);
    EXPECT_TRUE(std::all_of(huge.begin(), huge.end(),
                            [](uint32_t x) { return x == 0; }));
    std::iota(huge.begin(), huge.end(), 7u);
    std::iota(plain.begin(), plain.end(), 7u);
    EXPECT_TRUE(std::equal(huge.begin(), huge.end(), plain.begin(),
                           plain.end()));
  }
}

TEST(HugePageAllocatorTest, GrowthAcrossTheThresholdKeepsContents) {
  constexpr size_t kPast = kHugePageAdviseBytes / sizeof(uint64_t) + 1000;
  HugePageVector<uint64_t> pushed;
  std::vector<uint64_t> plain;
  for (uint64_t i = 0; i < kPast; ++i) {
    pushed.push_back(Mix64(i));
    plain.push_back(Mix64(i));
  }
  EXPECT_GE(pushed.capacity() * sizeof(uint64_t), kHugePageAdviseBytes);
  EXPECT_TRUE(
      std::equal(pushed.begin(), pushed.end(), plain.begin(), plain.end()));

  // resize from below the threshold to past it, with a fill value, then
  // back below it.
  HugePageVector<uint64_t> resized(100, 3);
  std::vector<uint64_t> plain_resized(100, 3);
  resized.resize(kPast, 11);
  plain_resized.resize(kPast, 11);
  resized[kPast - 1] = plain_resized[kPast - 1] = 42;
  EXPECT_TRUE(std::equal(resized.begin(), resized.end(),
                         plain_resized.begin(), plain_resized.end()));
  resized.resize(50);
  plain_resized.resize(50);
  EXPECT_TRUE(std::equal(resized.begin(), resized.end(),
                         plain_resized.begin(), plain_resized.end()));

  // Copies and moves keep working with the stateless allocator.
  HugePageVector<uint64_t> copy = pushed;
  HugePageVector<uint64_t> moved = std::move(pushed);
  EXPECT_TRUE(copy == moved);
}

}  // namespace
}  // namespace aligraph
