/// \file alias_table.h
/// \brief Walker alias method: O(1) sampling from a fixed discrete
/// distribution after O(n) build. Backs the NEGATIVE sampler (degree^0.75
/// noise distribution), weighted NEIGHBORHOOD sampling and the Zipf root
/// generator of the serving layer.

#ifndef ALIGRAPH_COMMON_ALIAS_TABLE_H_
#define ALIGRAPH_COMMON_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace aligraph {

/// \brief Immutable alias table over indices [0, n).
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds from non-negative weights; weights need not be normalized.
  /// An all-zero or empty weight vector yields an empty table.
  /// CHECK-fails on NaN or negative weights (see TryBuild for the
  /// status-returning variant).
  explicit AliasTable(const std::vector<double>& weights) { Build(weights); }

  /// Rebuilds the table in place. CHECK-fails on NaN or negative weights:
  /// a corrupt prob_ table silently biases every later draw, which is far
  /// harder to debug than an early abort.
  void Build(const std::vector<double>& weights);

  /// Like Build, but rejects NaN / negative weights with InvalidArgument
  /// instead of aborting. On rejection the table is left empty.
  Status TryBuild(const std::vector<double>& weights);

  /// Draws one index; table must be non-empty.
  size_t Sample(Rng& rng) const {
    const size_t i = rng.Uniform(prob_.size());
    return rng.NextDouble() < prob_[i] ? i : alias_[i];
  }

  /// Reusable scratch buffers for SampleBatch, so steady-state batched
  /// draws allocate nothing.
  struct BatchScratch {
    std::vector<uint32_t> idx;
    std::vector<double> u;
  };

  /// Draws out.size() indices in two passes: pass 1 consumes the RNG
  /// stream exactly as a scalar `for { Sample(rng) }` loop would (one
  /// Uniform then one NextDouble per draw, in order), pass 2 resolves the
  /// accept/alias branches with the prob_/alias_ rows prefetched ahead.
  /// Bit-identical to the scalar loop on the same stream — including the
  /// single-entry and all-equal-weight tables, where every branch accepts
  /// but the stream must still advance two draws per sample. Table must be
  /// non-empty unless out is empty.
  void SampleBatch(Rng& rng, std::span<size_t> out,
                   BatchScratch* scratch = nullptr) const;

  /// Draws out_a.size() pairs, bit-identical to the interleaved scalar
  /// loop `for j { out_a[j] = a.Sample(rng); out_b[j] = b.Sample(rng); }`
  /// on the same stream: pass 1 takes the RNG draws in exactly that order,
  /// pass 2 resolves each table's rows with prefetching as in SampleBatch.
  /// out_b must be as long as out_a; both tables must be non-empty unless
  /// the spans are empty.
  static void SamplePairBatch(const AliasTable& a, const AliasTable& b,
                              Rng& rng, std::span<size_t> out_a,
                              std::span<size_t> out_b,
                              BatchScratch* scratch = nullptr);

  bool empty() const { return prob_.empty(); }
  size_t size() const { return prob_.size(); }

 private:
  // Pass 2 of the batched draws: out[j] resolves row idx[j * stride]
  // against the uniform u[j * stride], the row `kAhead` draws on
  // prefetched.
  void Resolve(const uint32_t* idx, const double* u, size_t stride,
               std::span<size_t> out) const;

  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace aligraph

#endif  // ALIGRAPH_COMMON_ALIAS_TABLE_H_
