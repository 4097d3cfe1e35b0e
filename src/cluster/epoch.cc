#include "cluster/epoch.h"

#include "obs/metrics.h"

namespace aligraph {

EpochManager::EpochManager() {
  for (auto& s : slots_) s.store(kIdle, std::memory_order_relaxed);
  if (obs::MetricsRegistry* reg = obs::Default()) {
    obs_overflow_ = reg->GetCounter("epoch.pin_overflow");
  }
}

void EpochManager::CountOverflow() {
  if (obs_overflow_ != nullptr) obs_overflow_->Add(1);
}

}  // namespace aligraph
