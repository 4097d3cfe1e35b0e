/// \file fault_injector.h
/// \brief Deterministic fault injection for the simulated cluster's remote
/// read paths.
///
/// Real graph servers under Taobao-scale traffic stall and fail; our
/// in-process cluster never does, which would leave every recovery path
/// untested. The FaultInjector makes failure a first-class, *reproducible*
/// input: each remote request attempt is judged by a pure function of
/// (config seed, source worker, destination worker, request key, attempt
/// number) — no shared mutable state, no wall clock — so two runs with the
/// same seed inject byte-identical fault sequences regardless of thread
/// interleaving, and a failing schedule found in CI replays exactly.
///
/// Two modes compose:
///  - a probability config (per-attempt transient / timeout / slow rates,
///    hashed from the seed), and
///  - an explicit schedule (ScheduledFault): "every request to worker w
///    fails its first n attempts with kind k", which tests use to force a
///    specific recovery path deterministically.
/// Schedule entries take precedence for their worker; other workers fall
/// back to the probability draw.

#ifndef ALIGRAPH_FAULT_FAULT_INJECTOR_H_
#define ALIGRAPH_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/types.h"

namespace aligraph {

/// \brief What the injector did to one request attempt.
enum class FaultKind : uint8_t {
  kNone = 0,    ///< attempt proceeds normally
  kTransient,   ///< attempt fails immediately (connection reset, worker busy)
  kTimeout,     ///< attempt fails after burning its timeout budget
  kSlow,        ///< attempt succeeds but with inflated latency
};

const char* FaultKindName(FaultKind kind);

/// \brief Outcome of judging one attempt: the kind plus the modeled
/// microseconds the attempt cost on top of the normal RPC charge.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  double latency_us = 0.0;

  /// True when the attempt delivers data (possibly late).
  bool Succeeds() const {
    return kind == FaultKind::kNone || kind == FaultKind::kSlow;
  }
};

/// \brief Deterministic per-worker schedule entry: every request whose
/// destination is `worker` fails its first `fail_first_attempts` attempts
/// with `kind`; later attempts succeed.
struct ScheduledFault {
  WorkerId worker = 0;
  FaultKind kind = FaultKind::kTransient;
  uint32_t fail_first_attempts = 1;
};

/// \brief Fault model configuration. Probabilities are per attempt and must
/// sum to <= 1; the remainder is the no-fault probability.
struct FaultConfig {
  uint64_t seed = 0;
  double transient_prob = 0.0;
  double timeout_prob = 0.0;
  double slow_prob = 0.0;
  /// Modeled latency inflation of one kSlow attempt, microseconds.
  double slow_latency_us = 500.0;
  /// Modeled cost of one timed-out attempt, microseconds (the caller waits
  /// this long before concluding the worker is gone).
  double timeout_us = 1000.0;
  /// Explicit per-worker schedule; takes precedence over the probabilities
  /// for the listed workers.
  std::vector<ScheduledFault> schedule;

  /// An all-zero config injects nothing and leaves read paths untouched.
  bool Active() const {
    return transient_prob > 0 || timeout_prob > 0 || slow_prob > 0 ||
           !schedule.empty();
  }

  std::string ToString() const;
};

/// \brief Judges request attempts against a FaultConfig. Stateless and
/// thread-safe: the decision is a pure hash of its arguments. The cluster's
/// retry layer counts the faults it is handed in CommStats::faults_injected.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(std::move(config)) {}

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.Active(); }

  /// Judges attempt `attempt` (1-based) of the request identified by
  /// `request_key` from worker `from` to worker `to`. Pure in its
  /// arguments: the same tuple always yields the same decision.
  FaultDecision Decide(WorkerId from, WorkerId to, uint64_t request_key,
                       uint32_t attempt) const;

 private:
  FaultConfig config_;
};

}  // namespace aligraph

#endif  // ALIGRAPH_FAULT_FAULT_INJECTOR_H_
