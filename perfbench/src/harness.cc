#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/build_info.h"

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "bad --seed %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        std::fprintf(stderr, "bad --seconds %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "bad --trace %s (want 0 or 1)\n", value.c_str());
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

uint64_t Fingerprint(const aligraph::nn::Matrix& m) {
  uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < m.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  e2e_[name] = {value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = {value, unit};
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit) {
  extra_[name] = {value, unit};
}

void Report::Fail(uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::printf("FAILED %llu: %s\n", static_cast<unsigned long long>(n),
              why.c_str());
}

bool Report::Check(bool ok, const std::string& what) {
  Attempt();
  if (!ok) {
    ++mismatches_;
    Fail(1, "check " + what);
  }
  return ok;
}

namespace {

constexpr int kProbeSteps = 4096;
constexpr int kProbeReps = 99;
/// Median kernel time on a quiet 4-vCPU Xeon KVM guest; it only sets the
/// scale of the scaled metrics.
constexpr double kNominalKernelUs = 46.0;
/// Around() takes the samples this close to a window: host phases last tens
/// of seconds, and the median of a few seconds' samples ignores a stray one.
constexpr int64_t kSmoothNs = 2'000'000'000;

}  // namespace

HostSpeed::HostSpeed() : kernel_(std::make_unique<Kernel>()) {
  Kernel& k = *kernel_;
  std::fill(std::begin(k.a), std::end(k.a), 1.0f);
  std::fill(std::begin(k.b), std::end(k.b), 0.5f);
  std::fill(std::begin(k.c), std::end(k.c), 0.0f);
  // Sattolo's shuffle: a single cycle, so the walk never short-circuits.
  constexpr size_t words = sizeof(Kernel::next) / sizeof(uint32_t);
  std::vector<uint32_t> order(words);
  for (size_t i = 0; i < words; ++i) order[i] = static_cast<uint32_t>(i);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (size_t i = words - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % i]);
  }
  for (size_t i = 0; i < words; ++i) k.next[order[i]] = order[(i + 1) % words];
}

HostSpeed::~HostSpeed() = default;

int64_t HostSpeed::TimeKernel(Kernel* kernel) {
  constexpr size_t n = Kernel::kN;
  Kernel& k = *kernel;
  const int64_t t0 = NowNanos();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const float x = k.a[i * n + j];
      for (size_t m = 0; m < n; ++m) k.c[i * n + m] += x * k.b[j * n + m];
    }
  }
  // Every call walks the same steps from the same start.
  uint32_t p = 0;
  for (int s = 0; s < kProbeSteps; ++s) p = k.next[p];
  const int64_t t1 = NowNanos();
  // Feeds the walk's end back into the matrix so neither loop is dead.
  k.a[p % (n * n)] += 0.0f * k.c[0];
  return t1 - t0;
}

void HostSpeed::Sample() {
  std::vector<double> us;
  // Repetition 0 is untimed: it loads the kernel's memory into cache.
  for (int r = 0; r <= kProbeReps; ++r) {
    const int64_t ns = TimeKernel(kernel_.get());
    if (r > 0) us.push_back(static_cast<double>(ns) * 1e-3);
  }
  samples_.push_back({NowNanos(), kNominalKernelUs / perfbench::Median(us)});
}

double HostSpeed::Around(int64_t begin_ns, int64_t end_ns) const {
  std::vector<double> near;
  for (const Point& s : samples_) {
    if (s.at_ns >= begin_ns - kSmoothNs && s.at_ns <= end_ns + kSmoothNs) {
      near.push_back(s.speed);
    }
  }
  return near.empty() ? Median() : perfbench::Median(near);
}

double HostSpeed::Median() const {
  std::vector<double> v;
  for (const Point& s : samples_) v.push_back(s.speed);
  return v.empty() ? 1.0 : perfbench::Median(v);
}

void ReportScaled(Report* report, const RateLatency& scaled,
                  const RateLatency& raw, double speed) {
  report->EndToEnd("throughput_per_s", scaled.rate_per_s, "1/s");
  report->Extra("p50_us", scaled.p50_us, "us");
  report->Extra("p99_us", scaled.p99_us, "us");
  report->Extra("host.speed", speed, "ratio");
  report->Extra("raw.throughput_per_s", raw.rate_per_s, "1/s");
  report->Extra("raw.p50_us", raw.p50_us, "us");
  report->Extra("raw.p99_us", raw.p99_us, "us");
}

void TimeSetup(int reps, HostSpeed* speed, Report* report,
               const std::function<void()>& build) {
  std::vector<int64_t> start, end;
  speed->Sample();
  for (int r = 0; r < reps; ++r) {
    start.push_back(NowNanos());
    build();
    end.push_back(NowNanos());
    speed->Sample();
  }
  std::vector<double> raw, scaled;
  for (int r = 0; r < reps; ++r) {
    raw.push_back(static_cast<double>(end[r] - start[r]) * 1e-9);
    scaled.push_back(ScaleLatency(raw.back(), speed->Around(start[r], end[r])));
  }
  report->EndToEnd("setup_s", Median(scaled), "s");
  report->Extra("raw.setup_s", Median(raw), "s");
}

// ---------------------------------------------------------------- output

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

long Llc() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  return sysconf(_SC_LEVEL3_CACHE_SIZE);
#else
  return 0;
#endif
}

}  // namespace

void PrintProvenance() {
  std::printf("provenance: nproc=%u llc_bytes=%ld compiler=\"%s\" "
              "build_type=%s git_sha=%s\n",
              std::thread::hardware_concurrency(), Llc(),
              aligraph::BuildCompilerId(), aligraph::BuildType(),
              aligraph::BuildGitSha());
}

bool WriteTraceFile(const std::string& path, const Args& args,
                    const Report& report, const aligraph::obs::Tracer& tracer) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  std::fprintf(f,
               "  \"provenance\": {\"nproc\": %u, \"llc_bytes\": %ld, "
               "\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"git_sha\": \"%s\"},\n",
               std::thread::hardware_concurrency(), Llc(),
               aligraph::BuildCompilerId(), aligraph::BuildType(),
               aligraph::BuildGitSha());
  std::fprintf(f, "  \"end_to_end\": %s,\n",
               JsonMetrics(report.end_to_end()).c_str());
  std::fprintf(f, "  \"per_layer\": %s,\n",
               JsonMetrics(report.layers()).c_str());
  std::fprintf(f, "  \"extra\": %s,\n", JsonMetrics(report.extra()).c_str());
  std::fprintf(f, "  \"dropped_records\": %llu,\n",
               static_cast<unsigned long long>(tracer.dropped_records()));
  std::fprintf(f, "  \"span_summary\": {");
  bool first = true;
  for (const auto& [name, s] : tracer.Aggregate()) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"depth\": %u, "
                 "\"total_us\": %s, \"mean_us\": %s, \"min_us\": %s, "
                 "\"max_us\": %s}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(s.count), s.depth,
                 JsonNumber(s.total_us).c_str(),
                 JsonNumber(s.mean_us()).c_str(),
                 JsonNumber(s.min_us).c_str(), JsonNumber(s.max_us).c_str());
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"spans\": [");
  // Raw spans, capped so a long traced run still writes a small file.
  constexpr size_t kMaxRawSpans = 20000;
  const std::vector<aligraph::obs::SpanEvent> all = tracer.Events();
  for (size_t i = 0; i < all.size() && i < kMaxRawSpans; ++i) {
    const aligraph::obs::SpanEvent& s = all[i];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"trace\": %llu, \"id\": %llu, "
                 "\"parent\": %llu, \"depth\": %u, \"thread\": %u, "
                 "\"start_ns\": %lld, \"dur_ns\": %lld}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent_span_id), s.depth,
                 s.thread, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.duration_ns));
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

void PrintResult(const Report& report, bool trace) {
  auto print = [](const char* kind, const std::map<std::string, Metric>& ms) {
    for (const auto& [name, m] : ms) {
      std::printf("%-10s %-36s = %14.6g %s\n", kind, name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  print("e2e", report.end_to_end());
  print("workload", report.extra());
  if (trace) print("layer", report.layers());
  std::printf("attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  const bool correct = report.correct();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              JsonMetrics(trace ? report.layers() : report.end_to_end())
                  .c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
