#include "fault/fault_injector.h"

#include <sstream>

namespace aligraph {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kSlow:
      return "slow";
  }
  return "unknown";
}

std::string FaultConfig::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed << " transient=" << transient_prob
     << " timeout=" << timeout_prob << " slow=" << slow_prob
     << " schedule_entries=" << schedule.size();
  return os.str();
}

FaultDecision FaultInjector::Decide(WorkerId from, WorkerId to,
                                    uint64_t request_key,
                                    uint32_t attempt) const {
  FaultDecision d;
  // Schedule entries first: deterministic "fail the first n attempts".
  for (const ScheduledFault& s : config_.schedule) {
    if (s.worker != to) continue;
    if (attempt <= s.fail_first_attempts) {
      d.kind = s.kind;
      d.latency_us = s.kind == FaultKind::kTimeout ? config_.timeout_us
                     : s.kind == FaultKind::kSlow  ? config_.slow_latency_us
                                                   : 0.0;
    }
    // A scheduled worker never also draws from the probability model.
    return d;
  }

  // Probability mode: one uniform draw hashed purely from the identity of
  // this attempt, so the judgement is order- and thread-independent.
  uint64_t h = Mix64(config_.seed ^ 0x7fa0'17c4'5eed'f001ULL);
  h = Mix64(h ^ (static_cast<uint64_t>(from) << 32) ^ to);
  h = Mix64(h ^ request_key);
  h = Mix64(h ^ attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;

  if (u < config_.transient_prob) {
    d.kind = FaultKind::kTransient;
  } else if (u < config_.transient_prob + config_.timeout_prob) {
    d.kind = FaultKind::kTimeout;
    d.latency_us = config_.timeout_us;
  } else if (u <
             config_.transient_prob + config_.timeout_prob + config_.slow_prob) {
    d.kind = FaultKind::kSlow;
    d.latency_us = config_.slow_latency_us;
  }
  return d;
}

}  // namespace aligraph
