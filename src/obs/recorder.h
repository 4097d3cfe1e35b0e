/// \file recorder.h
/// \brief Slow-request flight recorder: a bounded reservoir of request
/// exemplars — the K slowest plus a deterministic uniform sample — each
/// carrying its latency budget, per-request counters, and (captured
/// retroactively from the span rings) its full causal trace tree.
///
/// Aggregates answer "how slow is p99"; the flight recorder answers "show
/// me one". After a serving run, each request's RequestBudget is offered
/// in request-id order (the order the sim retired them in); the recorder
/// keeps
///   - the `slowest_k` COMPLETED requests by modeled latency (the p99
///     exemplars a tail investigation starts from), and
///   - a `sample_k` uniform reservoir over ALL offered requests (so shed
///     and abandoned requests appear in proportion, giving the baseline
///     cohort to contrast against),
/// both bounded, both deterministic: the reservoir's replacement draws are
/// a pure hash of (seed, offer index), so the same run keeps the same
/// exemplars on every machine.
///
/// Trace trees are attached AFTER the run: budgets carry their root span's
/// trace id, and CaptureTraces() walks the tracer's retained events once,
/// assembling trees only for retained exemplars. The serving path pays
/// nothing per request for it beyond storing the trace id — the span rings
/// already hold the data, the recorder just stops it from being
/// overwritten anonymously.
///
/// Dumps: WriteJson() emits a self-contained dump (budgets, counters,
/// spans, plus the run's AttributionReport) that tools/trace_attrib reads
/// back via ParseRecorderDump.

#ifndef ALIGRAPH_OBS_RECORDER_H_
#define ALIGRAPH_OBS_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/attrib.h"
#include "obs/trace.h"

namespace aligraph {
namespace obs {

/// \brief Reservoir shape.
struct FlightRecorderConfig {
  size_t slowest_k = 8;  ///< completed requests retained by latency
  size_t sample_k = 8;   ///< uniform reservoir over all offered requests
  uint64_t seed = 1;     ///< reservoir replacement hash seed
};

/// \brief One retained request.
struct Exemplar {
  RequestBudget budget;
  bool slow = false;     ///< retained among the K slowest
  bool sampled = false;  ///< retained by the uniform reservoir
  /// Per-request counter deltas (sampled edges, gathered rows, per-phase
  /// CommStats fields, ...), free-form.
  std::map<std::string, uint64_t> counters;
  /// The request's causal spans (empty until CaptureTraces, or when the
  /// request was recorded with tracing detached).
  std::vector<SpanEvent> spans;
};

/// \brief Bounded exemplar reservoir. Offer() from ONE logical stream (a
/// run's results in id order); capture/dump at quiescent points.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  const FlightRecorderConfig& config() const { return config_; }

  /// Considers one retired request. Budgets with Outcome::kCompleted
  /// compete for the slowest-K; every offer feeds the uniform reservoir.
  void Offer(const RequestBudget& budget,
             std::map<std::string, uint64_t> counters = {});

  /// Requests offered so far.
  uint64_t offered() const { return offered_; }

  /// Attaches each retained exemplar's trace tree from `events` (matched
  /// by the budget's trace id). Returns how many exemplars got a tree.
  size_t CaptureTraces(const std::vector<SpanEvent>& events);

  /// Stores the run's cohort attribution so the dump is self-contained.
  void SetAttribution(const AttributionReport& report);

  /// Retained exemplars: slowest first (descending total), then the
  /// remaining uniform samples in request-id order. A request retained by
  /// both reservoirs appears once with both flags.
  std::vector<Exemplar> Exemplars() const;

  /// Self-contained JSON dump (schema_version 1; see ParseRecorderDump).
  std::string ToJson(const std::string& name) const;
  Status WriteJson(const std::string& path, const std::string& name) const;

 private:
  struct Entry {
    RequestBudget budget;
    std::map<std::string, uint64_t> counters;
    std::vector<SpanEvent> spans;
  };

  FlightRecorderConfig config_;
  uint64_t offered_ = 0;
  std::vector<Entry> slowest_;  ///< descending total_us, <= slowest_k
  std::vector<Entry> sample_;   ///< reservoir slots, <= sample_k
  AttributionReport attribution_;
  bool has_attribution_ = false;
};

/// \brief Parsed flight-recorder dump (for tools/trace_attrib).
struct RecorderDump {
  std::string name;
  uint64_t offered = 0;
  FlightRecorderConfig config;
  bool has_attribution = false;
  AttributionReport attribution;
  std::vector<Exemplar> exemplars;
};

/// Parses a dump produced by FlightRecorder::ToJson. InvalidArgument on
/// malformed documents, unknown component/outcome names, or an integer
/// field that is not an integer literal inside its type's range (read from
/// the literal, so a 64-bit value round-trips exactly).
Result<RecorderDump> ParseRecorderDump(std::string_view json);

}  // namespace obs
}  // namespace aligraph

#endif  // ALIGRAPH_OBS_RECORDER_H_
