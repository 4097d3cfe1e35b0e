/// \file main.cc
/// \brief Wall-clock benchmark entry point.
///
///   perfbench --workload train_ooc|serve_small|khop_cluster --seed N
///             --seconds S --trace 0|1 [--out DIR]
///
/// Prints provenance, every metric as a `name = value unit` line, and as
/// its last line one JSON object {correct, attempted, failed, metrics}:
/// the end-to-end metrics, or with --trace 1 the per-layer metrics. A
/// traced run also writes DIR/<workload>.seed<N>.trace.json (the tracer's
/// spans and all metrics). perfbench/run.py builds this binary and runs it.

#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  void (*run)(const Args&, aligraph::obs::MetricsRegistry*, Report*) =
      nullptr;
  if (args.workload == "train_ooc") {
    run = RunTrainOoc;
  } else if (args.workload == "serve_small") {
    run = RunServeSmall;
  } else if (args.workload == "khop_cluster") {
    run = RunKhopCluster;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  PrintProvenance();
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  // Every run keeps a metrics registry attached, as the repo's benches and
  // ServeEngine deployments do. Only the traced run attaches a tracer; it
  // then records the benchmark's spans and the library's own.
  aligraph::obs::MetricsRegistry registry;
  aligraph::obs::SetDefault(&registry);
  aligraph::obs::Tracer tracer(/*ring_capacity=*/1 << 14);
  if (args.trace) aligraph::obs::SetDefaultTracer(&tracer);

  Report report;
  run(args, &registry, &report);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  if (args.trace) {
    aligraph::obs::SetDefaultTracer(nullptr);
    report.Extra("trace.dropped_records",
                 static_cast<double>(tracer.dropped_records()), "count");
    mkdir(args.out_dir.c_str(), 0755);
    const std::string path = args.out_dir + "/" + args.workload + ".seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (WriteTraceFile(path, args, report, tracer)) {
      std::printf("trace file: %s\n", path.c_str());
    } else {
      std::printf("could not write trace file %s\n", path.c_str());
    }
  }
  aligraph::obs::SetDefault(nullptr);
  PrintResult(report, args.trace);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
