/// \file retry_policy.h
/// \brief Retry policy for remote reads in the simulated cluster: bounded
/// attempts, exponential backoff with decorrelated jitter, and a modeled
/// per-request deadline.
///
/// The policy mirrors what BGL-style systems use to bound tail latency on
/// flaky graph servers: a request gets max_attempts tries; between tries
/// the caller backs off for a jittered, geometrically growing interval; a
/// request whose accumulated modeled time (attempt latencies + backoffs)
/// exceeds deadline_us is abandoned even if attempts remain. All times are
/// *modeled* — charged to CommStats::retry_backoff_us and reflected in
/// CommModel::ModeledMillis — never actually slept, so fault tests stay
/// fast and exactly reproducible.

#ifndef ALIGRAPH_FAULT_RETRY_POLICY_H_
#define ALIGRAPH_FAULT_RETRY_POLICY_H_

#include <cstdint>
#include <string>

#include "common/random.h"

namespace aligraph {

/// \brief Bounded-retry configuration applied to the cluster reads a fault
/// injector judges.
struct RetryPolicy {
  /// Total tries per request, including the first (>= 1).
  uint32_t max_attempts = 4;
  /// First backoff interval, microseconds (modeled).
  double base_backoff_us = 50.0;
  /// Backoff cap, microseconds (modeled).
  double max_backoff_us = 4000.0;
  /// Per-request budget over attempt latencies + backoffs, microseconds
  /// (modeled). A request past its deadline fails without further retries.
  double deadline_us = 100000.0;

  /// Next backoff after a backoff of `prev_us`, using AWS-style
  /// decorrelated jitter: uniform in [base, 3 * prev], capped. The jitter
  /// stream comes from `rng`, which callers seed per request so the
  /// schedule is a pure function of (config seed, request key).
  double NextBackoffUs(double prev_us, Rng& rng) const;

  std::string ToString() const;
};

}  // namespace aligraph

#endif  // ALIGRAPH_FAULT_RETRY_POLICY_H_
