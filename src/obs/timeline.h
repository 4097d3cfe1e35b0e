/// \file timeline.h
/// \brief Request-timeline tooling over Tracer::Events(): assembles the
/// causally-linked span records into per-request trace trees, exports them
/// as Chrome trace_event / Perfetto-compatible JSON, and walks a tree's
/// longest blocking chain (the critical path).
///
/// The bench harness wires this behind --trace-out: one run writes
/// bench/out/<name>.trace.json loadable in chrome://tracing or
/// https://ui.perfetto.dev, and prints the critical path of the slowest
/// request so "where does the time go" has a one-line answer.

#ifndef ALIGRAPH_OBS_TIMELINE_H_
#define ALIGRAPH_OBS_TIMELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace aligraph {
namespace obs {

/// \brief One span in an assembled trace tree; children are indices into
/// TraceTree::nodes, sorted by start time.
struct TraceNode {
  SpanEvent event;
  std::vector<size_t> children;
};

/// \brief One request's tree: nodes[root] is the unique parentless span.
struct TraceTree {
  uint64_t trace_id = 0;
  size_t root = 0;
  std::vector<TraceNode> nodes;

  const SpanEvent& root_event() const { return nodes[root].event; }
  double duration_us() const {
    return static_cast<double>(root_event().duration_ns) * 1e-3;
  }
};

/// \brief Every trace found in a batch of events, plus what could not be
/// linked: orphans carry a parent span id that is absent from their trace
/// (evicted from a ring); untraced events carry no ids at all (an empty
/// TraceContext).
struct TraceForest {
  std::vector<TraceTree> traces;  ///< sorted by trace id
  uint64_t orphan_spans = 0;
  uint64_t untraced_spans = 0;
};

/// Groups events by trace id and links children to parents. A trace whose
/// root span was evicted contributes all its events to orphan_spans and no
/// tree.
TraceForest AssembleTraces(const std::vector<SpanEvent>& events);

/// \brief One step of a critical path: the span, its wall time, and the
/// share of it not covered by the next step down (self_us).
struct CriticalPathStep {
  std::string name;
  uint64_t span_id = 0;
  uint32_t thread = 0;
  double total_us = 0;
  double self_us = 0;
};

/// \brief The longest blocking chain of one request, root to leaf.
struct CriticalPath {
  double total_us = 0;  ///< root span duration
  std::vector<CriticalPathStep> steps;

  /// The step with the largest self time — "74% of the request sits here".
  const CriticalPathStep* DominantStep() const;
  std::string ToString() const;
};

/// Walks the tree from the root, at each span descending into the child
/// that finished last (the one the parent blocked on); a span's self time
/// is its duration minus the chosen child's. Parallel children that finish
/// earlier overlap the chain and are charged to nobody — the chain is the
/// lower bound on the request's latency.
CriticalPath ComputeCriticalPath(const TraceTree& tree);

/// Chrome trace_event JSON (the {"traceEvents": [...]} envelope): one "X"
/// complete event per span (ts/dur in microseconds, tid = recording ring
/// index, args carrying trace/span/parent ids) plus "s"/"f" flow events for
/// every cross-thread parent->child edge so Perfetto draws the handoff
/// arrows, and "M" metadata naming the process and rings.
std::string ChromeTraceJson(const std::vector<SpanEvent>& events);

/// Writes ChromeTraceJson(events) to `path` (creating parent directories).
Status WriteChromeTrace(const std::vector<SpanEvent>& events,
                        const std::string& path);

}  // namespace obs
}  // namespace aligraph

#endif  // ALIGRAPH_OBS_TIMELINE_H_
