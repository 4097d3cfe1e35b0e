/// \file attrib.h
/// \brief Tail-latency attribution: decompose each serve request's modeled
/// latency into named budget components and contrast the p50 cohort against
/// the p99 cohort per component.
///
/// When the serving gate (DESIGN.md §13) reports a p99 regression, the only
/// follow-up question that matters is *where the time went*: queueing,
/// sampling, gathering or compute. The serving sim already knows — every
/// modeled microsecond it charges comes from an explicit term (lane wait,
/// per-edge sample cost, per-row gather cost, fixed forward cost) — so
/// attribution is bookkeeping, not guesswork: each request maps to a
/// RequestBudget whose components are the sim's own charge terms, derived
/// after the run from the request's serve::RequestResult by
/// serve::BudgetFor. Because everything lives on the modeled clock,
/// budgets are bit-deterministic across runs, machines and pipeline depths,
/// which lets bench_serve gate the attribution coverage fraction
/// (attributed / total latency) in bench/baseline.json:
/// a new latency source that forgets to declare its component makes the
/// gate fail instead of silently rotting the breakdown.
///
/// The cohort report answers the actual question: per component, the mean
/// microseconds and the share of cohort latency in the p50 cohort (requests
/// at or below the p50 total) versus the p99 cohort (requests at or above
/// the p99 total). A component whose share GROWS from p50 to p99 is what
/// makes the tail the tail — the stage-level bottleneck profile BGL
/// (PAPERS.md, arXiv:2112.08541) builds its optimization loop around.
///
/// Two sources feed the same taxonomy:
///   - MODELED budgets from the serving sim (deterministic, gateable).
///   - WALL budgets from a request's causal trace tree (BudgetFromTraceTree)
///     for eyeballing flight-recorder exemplars; never gated.

#ifndef ALIGRAPH_OBS_ATTRIB_H_
#define ALIGRAPH_OBS_ATTRIB_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace aligraph {
namespace obs {

struct TraceTree;

/// \brief Where one modeled microsecond of a request's latency went.
enum class BudgetComponent : uint8_t {
  kQueueWait = 0,   ///< admitted but waiting for a free service lane
  kSample,          ///< k-hop neighbor sampling (per-edge cost)
  kGather,          ///< feature-row gathering (per-row cost)
  kCompute,         ///< GNN forward (fixed per-request cost)
  kAbandoned,       ///< client wait until it gave up on a missed deadline
};

inline constexpr size_t kNumBudgetComponents = 5;

/// Stable lower_snake_case name ("queue_wait", "sample", ...), used as the
/// JSON key in flight-recorder dumps and the row label in reports.
const char* BudgetComponentName(BudgetComponent c);

/// Inverse of BudgetComponentName; NotFound for unknown names.
Result<BudgetComponent> BudgetComponentFromName(std::string_view name);

/// \brief One request's latency decomposition. total_us is the request's
/// modeled latency measured independently of the components (finish minus
/// arrival on the sim clock); the components are the sim's individual
/// charge terms. attributed_us() == total_us up to floating-point
/// association, and the GAP between them is exactly the latency the sim
/// charged without declaring a component — the quantity the coverage gate
/// watches.
struct RequestBudget {
  enum class Outcome : uint8_t {
    kCompleted = 0,  ///< served within deadline
    kShed,           ///< rejected at admission; total_us == 0
    kAbandoned,      ///< deadline missed; total charged to kAbandoned
  };

  uint64_t request_id = 0;
  /// Trace id of the request's root span (0 when tracing was detached);
  /// the flight recorder uses it to retroactively attach the trace tree.
  uint64_t trace_id = 0;
  Outcome outcome = Outcome::kCompleted;
  double total_us = 0;
  std::array<double, kNumBudgetComponents> components{};

  double& at(BudgetComponent c) {
    return components[static_cast<size_t>(c)];
  }
  double at(BudgetComponent c) const {
    return components[static_cast<size_t>(c)];
  }

  /// Sum of all components.
  double attributed_us() const;
  /// attributed / total, clamped to [0, 1]; 1 when total_us <= 0 (an
  /// instantly-shed request has nothing left to attribute).
  double coverage() const;
};

const char* BudgetOutcomeName(RequestBudget::Outcome outcome);
Result<RequestBudget::Outcome> BudgetOutcomeFromName(std::string_view name);

/// \brief Per-component statistics of one latency cohort.
struct CohortAttribution {
  uint64_t requests = 0;
  double threshold_us = 0;  ///< the nearest-rank percentile defining it
  double total_us = 0;      ///< sum of member totals
  double mean_total_us = 0;
  std::array<double, kNumBudgetComponents> mean_us{};
  /// Component sum / cohort total sum — "the p99 cohort spends 61% of its
  /// latency waiting for a lane".
  std::array<double, kNumBudgetComponents> share{};
};

/// \brief The p50-vs-p99 contrast over one run's budgets, plus the
/// attribution-coverage fraction the bench gate pins.
struct AttributionReport {
  uint64_t requests = 0;  ///< budgets with total_us > 0 (cohort population)
  double p_low = 50.0;
  double p_high = 99.0;
  CohortAttribution low;   ///< requests with total <= the p_low threshold
  CohortAttribution high;  ///< requests with total >= the p_high threshold
  /// Aggregate sum(attributed) / sum(total) over the population; 1 when
  /// the population is empty.
  double coverage = 1.0;
  /// Worst single-request coverage — a lone unattributed spike hides in
  /// the aggregate but not here.
  double min_coverage = 1.0;

  /// The per-component p50 / p99 / delta-share table.
  std::string ToString() const;
};

/// Builds the cohort contrast over `budgets`. Population: every budget with
/// total_us > 0, so completed and abandoned requests are attributed (an
/// all-abandoned tail is itself the answer to "why is p99 slow") while
/// instantly-shed requests are excluded. Cohort thresholds are
/// nearest-rank percentiles of the population's totals; ties keep both
/// cohorts non-empty whenever the population is. Deterministic: same
/// budgets (any storage order) -> bit-identical report.
AttributionReport BuildAttributionReport(std::span<const RequestBudget> budgets,
                                         double p_low = 50.0,
                                         double p_high = 99.0);

/// Wall-clock budget of one assembled trace tree: total is the root span's
/// duration; the root's DIRECT children are mapped onto components by span
/// name (…"sample" -> kSample, …"gather" -> kGather, …"compute" ->
/// kCompute; anything else stays unattributed). Nested sub-spans are
/// deliberately not summed — they would double-count their parents.
RequestBudget BudgetFromTraceTree(const TraceTree& tree);

}  // namespace obs
}  // namespace aligraph

#endif  // ALIGRAPH_OBS_ATTRIB_H_
