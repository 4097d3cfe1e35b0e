#include "common/alias_table.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/prefetch.h"

namespace aligraph {

namespace {

/// NaN, infinite or negative entries would flow straight into prob_ as
/// garbage acceptance thresholds (NaN compares false, so the alias branch
/// fires forever; an infinity turns the normalization into NaN; negatives
/// push other entries' scaled mass past 1).
Status ValidateWeights(const std::vector<double>& weights) {
  for (size_t i = 0; i < weights.size(); ++i) {
    if (std::isnan(weights[i])) {
      return Status::InvalidArgument("alias weight " + std::to_string(i) +
                                     " is NaN");
    }
    if (!std::isfinite(weights[i])) {
      return Status::InvalidArgument("alias weight " + std::to_string(i) +
                                     " is not finite");
    }
    if (weights[i] < 0) {
      return Status::InvalidArgument("alias weight " + std::to_string(i) +
                                     " is negative");
    }
  }
  return Status::OK();
}

}  // namespace

void AliasTable::Build(const std::vector<double>& weights) {
  const Status st = TryBuild(weights);
  ALIGRAPH_CHECK(st.ok()) << st.ToString();
}

Status AliasTable::TryBuild(const std::vector<double>& weights) {
  prob_.clear();
  alias_.clear();
  const Status valid = ValidateWeights(weights);
  if (!valid.ok()) return valid;

  const size_t n = weights.size();
  if (n == 0) return Status::OK();

  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) return Status::OK();

  prob_.resize(n);
  alias_.assign(n, 0);

  // Scaled probabilities; mean is exactly 1.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Numerical leftovers all get probability 1.
  for (uint32_t i : small) prob_[i] = 1.0;
  for (uint32_t i : large) prob_[i] = 1.0;
  return Status::OK();
}

void AliasTable::SampleBatch(Rng& rng, std::span<size_t> out,
                             BatchScratch* scratch) const {
  if (out.empty()) return;
  ALIGRAPH_CHECK(!empty());

  BatchScratch local;
  BatchScratch& s = scratch != nullptr ? *scratch : local;
  const size_t count = out.size();
  s.idx.resize(count);
  s.u.resize(count);

  // Pass 1: the RNG draws, in exactly the order the scalar loop makes
  // them. Nothing else happens here, so the stream consumed is a pure
  // function of `count` — the bit-identity contract.
  for (size_t j = 0; j < count; ++j) {
    s.idx[j] = static_cast<uint32_t>(rng.Uniform(prob_.size()));
    s.u[j] = rng.NextDouble();
  }

  Resolve(s.idx.data(), s.u.data(), 1, out);
}

void AliasTable::SamplePairBatch(const AliasTable& a, const AliasTable& b,
                                 Rng& rng, std::span<size_t> out_a,
                                 std::span<size_t> out_b,
                                 BatchScratch* scratch) {
  ALIGRAPH_CHECK_EQ(out_a.size(), out_b.size());
  if (out_a.empty()) return;
  ALIGRAPH_CHECK(!a.empty() && !b.empty());

  BatchScratch local;
  BatchScratch& s = scratch != nullptr ? *scratch : local;
  const size_t count = out_a.size();
  s.idx.resize(2 * count);
  s.u.resize(2 * count);

  // Pass 1: the draws of a then b, pair by pair, interleaved in scratch
  // exactly as the scalar loop consumes them.
  for (size_t j = 0; j < count; ++j) {
    s.idx[2 * j] = static_cast<uint32_t>(rng.Uniform(a.prob_.size()));
    s.u[2 * j] = rng.NextDouble();
    s.idx[2 * j + 1] = static_cast<uint32_t>(rng.Uniform(b.prob_.size()));
    s.u[2 * j + 1] = rng.NextDouble();
  }
  a.Resolve(s.idx.data(), s.u.data(), 2, out_a);
  b.Resolve(s.idx.data() + 1, s.u.data() + 1, 2, out_b);
}

void AliasTable::Resolve(const uint32_t* idx, const double* u, size_t stride,
                         std::span<size_t> out) const {
  // The row needed `kAhead` iterations from now is prefetched so the
  // (random-index) loads overlap.
  constexpr size_t kAhead = 8;
  const size_t count = out.size();
  for (size_t j = 0; j < count; ++j) {
    if (j + kAhead < count) {
      ALIGRAPH_PREFETCH(&prob_[idx[(j + kAhead) * stride]]);
      ALIGRAPH_PREFETCH(&alias_[idx[(j + kAhead) * stride]]);
    }
    const uint32_t i = idx[j * stride];
    out[j] = u[j * stride] < prob_[i] ? i : alias_[i];
  }
}

}  // namespace aligraph
