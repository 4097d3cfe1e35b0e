/// \file workloads.h
/// \brief The three benchmark workloads. Each builds its inputs from the
/// seed, times its set-up, measures for `args.seconds`, checks outputs and
/// fills the common end-to-end metrics (setup_s, peak_rss_mb,
/// throughput_per_s, p50_us, p99_us) plus its own named numbers. With
/// `args.trace` it also runs the per-layer replay (layers.h).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

/// GraphSAGE training past the last-level cache (compute-bound).
void RunTrainOoc(const Args& args, aligraph::obs::MetricsRegistry* registry,
                 Report* report);

/// Online serving on an in-cache graph (per-request fixed costs).
void RunServeSmall(const Args& args, aligraph::obs::MetricsRegistry* registry,
                   Report* report);

/// k-hop reads against the simulated cluster, read-only then beside an
/// open-loop update stream.
void RunKhopCluster(const Args& args, aligraph::obs::MetricsRegistry* registry,
                    Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
