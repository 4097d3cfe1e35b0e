#include "obs/attrib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <vector>

#include "obs/timeline.h"

namespace aligraph {
namespace obs {

namespace {

constexpr const char* kComponentNames[kNumBudgetComponents] = {
    "queue_wait", "sample", "gather", "compute", "abandoned",
};

constexpr const char* kOutcomeNames[] = {"completed", "shed", "abandoned"};

/// Nearest-rank percentile over an ascending-sorted vector.
double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = std::ceil(clamped / 100.0 *
                                static_cast<double>(sorted.size()));
  const size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

void AccumulateCohort(const RequestBudget& b, CohortAttribution* cohort) {
  ++cohort->requests;
  cohort->total_us += b.total_us;
  for (size_t c = 0; c < kNumBudgetComponents; ++c) {
    cohort->mean_us[c] += b.components[c];  // sums for now; divided below
  }
}

void FinalizeCohort(CohortAttribution* cohort) {
  if (cohort->requests == 0) return;
  const double n = static_cast<double>(cohort->requests);
  cohort->mean_total_us = cohort->total_us / n;
  for (size_t c = 0; c < kNumBudgetComponents; ++c) {
    const double sum = cohort->mean_us[c];
    cohort->mean_us[c] = sum / n;
    cohort->share[c] = cohort->total_us > 0.0 ? sum / cohort->total_us : 0.0;
  }
}

}  // namespace

const char* BudgetComponentName(BudgetComponent c) {
  return kComponentNames[static_cast<size_t>(c)];
}

Result<BudgetComponent> BudgetComponentFromName(std::string_view name) {
  for (size_t i = 0; i < kNumBudgetComponents; ++i) {
    if (name == kComponentNames[i]) return static_cast<BudgetComponent>(i);
  }
  return Status::NotFound("unknown budget component: " + std::string(name));
}

const char* BudgetOutcomeName(RequestBudget::Outcome outcome) {
  return kOutcomeNames[static_cast<size_t>(outcome)];
}

Result<RequestBudget::Outcome> BudgetOutcomeFromName(std::string_view name) {
  for (size_t i = 0; i < 3; ++i) {
    if (name == kOutcomeNames[i]) {
      return static_cast<RequestBudget::Outcome>(i);
    }
  }
  return Status::NotFound("unknown budget outcome: " + std::string(name));
}

double RequestBudget::attributed_us() const {
  double sum = 0;
  for (const double c : components) sum += c;
  return sum;
}

double RequestBudget::coverage() const {
  if (total_us <= 0.0) return 1.0;
  return std::clamp(attributed_us() / total_us, 0.0, 1.0);
}

AttributionReport BuildAttributionReport(
    std::span<const RequestBudget> budgets, double p_low, double p_high) {
  AttributionReport report;
  report.p_low = p_low;
  report.p_high = p_high;

  std::vector<double> totals;
  totals.reserve(budgets.size());
  double attributed_sum = 0;
  double total_sum = 0;
  for (const RequestBudget& b : budgets) {
    if (b.total_us <= 0.0) continue;
    totals.push_back(b.total_us);
    attributed_sum += b.attributed_us();
    total_sum += b.total_us;
    report.min_coverage = std::min(report.min_coverage, b.coverage());
  }
  report.requests = totals.size();
  if (totals.empty()) return report;
  std::sort(totals.begin(), totals.end());
  report.coverage =
      total_sum > 0.0 ? std::clamp(attributed_sum / total_sum, 0.0, 1.0) : 1.0;
  report.low.threshold_us = NearestRank(totals, p_low);
  report.high.threshold_us = NearestRank(totals, p_high);

  for (const RequestBudget& b : budgets) {
    if (b.total_us <= 0.0) continue;
    if (b.total_us <= report.low.threshold_us) {
      AccumulateCohort(b, &report.low);
    }
    if (b.total_us >= report.high.threshold_us) {
      AccumulateCohort(b, &report.high);
    }
  }
  FinalizeCohort(&report.low);
  FinalizeCohort(&report.high);
  return report;
}

std::string AttributionReport::ToString() const {
  std::ostringstream os;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "attribution over %llu requests | coverage %.4f%% "
                "(min %.4f%%) | p%.0f cohort: %llu reqs <= %.1f us | "
                "p%.0f cohort: %llu reqs >= %.1f us",
                static_cast<unsigned long long>(requests), 100.0 * coverage,
                100.0 * min_coverage, p_low,
                static_cast<unsigned long long>(low.requests),
                low.threshold_us, p_high,
                static_cast<unsigned long long>(high.requests),
                high.threshold_us);
  os << buf << "\n";
  std::snprintf(buf, sizeof(buf), "%-14s %12s %8s %12s %8s %9s",
                "component", "p50 us", "p50 %", "p99 us", "p99 %",
                "d(share)");
  os << buf << "\n";
  for (size_t c = 0; c < kNumBudgetComponents; ++c) {
    // Skip rows that are zero in both cohorts so the table leads with the
    // components that actually carry latency.
    if (low.mean_us[c] == 0.0 && high.mean_us[c] == 0.0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-14s %12.2f %8.2f %12.2f %8.2f %+8.2f%%",
                  BudgetComponentName(static_cast<BudgetComponent>(c)),
                  low.mean_us[c], 100.0 * low.share[c], high.mean_us[c],
                  100.0 * high.share[c],
                  100.0 * (high.share[c] - low.share[c]));
    os << buf << "\n";
  }
  const double low_unattr = 1.0 - std::accumulate(low.share.begin(),
                                                  low.share.end(), 0.0);
  const double high_unattr = 1.0 - std::accumulate(high.share.begin(),
                                                   high.share.end(), 0.0);
  std::snprintf(buf, sizeof(buf), "%-14s %12s %8.2f %12s %8.2f %+8.2f%%",
                "unattributed", "-", 100.0 * low_unattr, "-",
                100.0 * high_unattr, 100.0 * (high_unattr - low_unattr));
  os << buf << "\n";
  return os.str();
}

RequestBudget BudgetFromTraceTree(const TraceTree& tree) {
  RequestBudget budget;
  budget.trace_id = tree.trace_id;
  budget.total_us = tree.duration_us();
  for (const size_t child : tree.nodes[tree.root].children) {
    const SpanEvent& ev = tree.nodes[child].event;
    const double us = static_cast<double>(ev.duration_ns) * 1e-3;
    if (ev.name.find("sample") != std::string::npos) {
      budget.at(BudgetComponent::kSample) += us;
    } else if (ev.name.find("gather") != std::string::npos) {
      budget.at(BudgetComponent::kGather) += us;
    } else if (ev.name.find("compute") != std::string::npos) {
      budget.at(BudgetComponent::kCompute) += us;
    }
    // Other children stay unattributed: the gap is visible in coverage().
  }
  return budget;
}

}  // namespace obs
}  // namespace aligraph
