/// \file bench_util.h
/// \brief Shared helpers for the experiment harnesses in bench/: table
/// printing in the paper's layout, a --scale command-line knob so every
/// experiment can grow toward paper scale on bigger machines, and an
/// ObsBench session that attaches the observability subsystem and mirrors
/// the printed tables into a machine-readable JSON run report.

#ifndef ALIGRAPH_BENCH_BENCH_UTIL_H_
#define ALIGRAPH_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/build_info.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace aligraph {
namespace bench {

/// Parses --scale=<double> (default 1.0), --seed=<uint64>,
/// --out=<dir> (run-report directory, default bench/out) and
/// --trace-out[=<path>] (Chrome trace_event JSON; the bare flag defaults
/// the path to <out_dir>/<name>.trace.json) from argv. A scale that is not
/// a finite positive number, a seed that is not an unsigned decimal
/// integer, and any other argument print a usage error and exit 2.
struct BenchArgs {
  double scale = 1.0;
  uint64_t seed = 1;
  std::string out_dir = "bench/out";
  bool trace_requested = false;
  std::string trace_out_path;  ///< empty = default to <out_dir>/<name>

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      bool ok = true;
      if (arg.starts_with("--scale=")) {
        const std::string value(arg.substr(8));
        char* end = nullptr;
        args.scale = std::strtod(value.c_str(), &end);
        ok = end == value.c_str() + value.size() &&
             std::isfinite(args.scale) && args.scale > 0.0;
      } else if (arg.starts_with("--seed=")) {
        const std::string_view value = arg.substr(7);
        const auto [ptr, ec] = std::from_chars(
            value.data(), value.data() + value.size(), args.seed);
        ok = ec == std::errc() && ptr == value.data() + value.size();
      } else if (arg.starts_with("--out=")) {
        args.out_dir = arg.substr(6);
      } else if (arg.starts_with("--trace-out=")) {
        args.trace_requested = true;
        args.trace_out_path = arg.substr(12);
      } else if (arg == "--trace-out") {
        args.trace_requested = true;
      } else {
        ok = false;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "%s: bad argument '%s'\nusage: %s [--scale=<positive "
                     "number>] [--seed=<uint64>] [--out=<dir>] "
                     "[--trace-out[=<path>]]\n",
                     argv[0], argv[i], argv[0]);
        std::exit(2);
      }
    }
    return args;
  }
};

/// Prints a header banner naming the experiment.
inline void Banner(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

/// Prints one row of '|'-separated cells.
inline void Row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("| %-22s ", c.c_str());
  std::printf("|\n");
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string Pct(double v) { return Fmt("%.2f", v * 100.0); }
inline std::string Ms(double v) { return Fmt("%.2f ms", v); }

/// \brief Observability session for one bench run.
///
/// Owns a MetricsRegistry and a Tracer, attaches both as process defaults
/// for its lifetime, and mirrors the printed tables into a RunReport that
/// WriteReport() serializes to <out_dir>/<name>.json. Construct BEFORE any
/// instrumented component (Cluster, BlockPipeline or the SageTrainer that
/// holds one, HopEmbeddingCache): those resolve their counter handles from
/// the default registry at construction time.
class ObsBench {
 public:
  ObsBench(std::string name, const BenchArgs& args)
      : report_(std::move(name)), out_dir_(args.out_dir) {
    obs::SetDefault(&registry_);
    obs::SetDefaultTracer(&tracer_);
    report_.AddMeta("scale", args.scale);
    report_.AddMeta("seed", static_cast<double>(args.seed));
    report_.SetBuildInfo(BuildGitSha(), BuildCompilerId(), BuildType());
    std::printf("build: %s | %s | %s\n", BuildGitSha(), BuildCompilerId(),
                BuildType());
    if (args.trace_requested) {
      trace_path_ = args.trace_out_path.empty()
                        ? out_dir_ + "/" + report_.name() + ".trace.json"
                        : args.trace_out_path;
    }
  }

  ~ObsBench() {
    if (obs::Default() == &registry_) obs::SetDefault(nullptr);
    if (obs::DefaultTracer() == &tracer_) obs::SetDefaultTracer(nullptr);
  }

  ObsBench(const ObsBench&) = delete;
  ObsBench& operator=(const ObsBench&) = delete;

  obs::MetricsRegistry& registry() { return registry_; }
  obs::Tracer& tracer() { return tracer_; }
  obs::RunReport& report() { return report_; }

  /// Starts a new report table and prints the header row.
  void Table(const std::string& name, const std::vector<std::string>& cols) {
    report_.AddTable(name, cols);
    Row(cols);
  }

  /// Prints one row and records it into the current report table.
  void TableRow(const std::vector<std::string>& cells) {
    report_.AddRow(cells);
    Row(cells);
  }

  /// Snapshots metrics + span aggregates into the report and writes
  /// <out_dir>/<name>.json, printing the path (or the error) to stdout.
  /// With --trace-out, also exports the causally-linked span events as
  /// Chrome trace_event JSON and prints the slowest request's critical
  /// path. Call at a quiescent point (all instrumented work finished).
  void WriteReport() {
    // Surface the tracer's own loss accounting: span records that fell off
    // the per-thread rings before this snapshot. A run report claiming
    // "here are the spans" should also say how many it is missing.
    registry_.GetCounter("trace.dropped_records")
        ->Add(tracer_.dropped_records());
    report_.AttachMetrics(registry_.Snapshot());
    report_.AttachSpans(tracer_.Aggregate());
    std::string path;
    const Status st = report_.WriteFile(out_dir_, &path);
    if (st.ok()) {
      std::printf("\nrun report: %s\n", path.c_str());
    } else {
      std::printf("\nrun report FAILED: %s\n", st.ToString().c_str());
    }
    if (!trace_path_.empty()) WriteTrace();
  }

 private:
  void WriteTrace() {
    const std::vector<obs::SpanEvent> events = tracer_.Events();
    const Status st = obs::WriteChromeTrace(events, trace_path_);
    if (!st.ok()) {
      std::printf("trace export FAILED: %s\n", st.ToString().c_str());
      return;
    }
    const obs::TraceForest forest = obs::AssembleTraces(events);
    std::printf("trace: %s (%zu events, %zu traces, %llu orphans, "
                "%llu untraced)\n",
                trace_path_.c_str(), events.size(), forest.traces.size(),
                static_cast<unsigned long long>(forest.orphan_spans),
                static_cast<unsigned long long>(forest.untraced_spans));
    // The slowest request is where a latency investigation starts; print
    // its longest blocking chain.
    const obs::TraceTree* slowest = nullptr;
    for (const obs::TraceTree& tree : forest.traces) {
      if (tree.nodes.size() < 2) continue;  // standalone helper spans
      if (slowest == nullptr ||
          tree.duration_us() > slowest->duration_us()) {
        slowest = &tree;
      }
    }
    if (slowest != nullptr) {
      std::printf("slowest request: %s\n%s\n",
                  slowest->root_event().name.c_str(),
                  obs::ComputeCriticalPath(*slowest).ToString().c_str());
    }
  }

  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
  obs::RunReport report_;
  std::string out_dir_;
  std::string trace_path_;
};

}  // namespace bench
}  // namespace aligraph

#endif  // ALIGRAPH_BENCH_BENCH_UTIL_H_
