#include "block/sampled_block.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace aligraph {
namespace block {

namespace {

/// Bounds for the slots-per-unique-vertex duplicate ratio (>= 1; a hop of
/// all-distinct vertices records 1, heavy hub resampling records >> 1).
std::span<const double> RatioBounds() {
  static constexpr double kBounds[] = {1,  1.25, 1.5, 2,  3,  4,  6, 8,
                                       12, 16,   24,  32, 48, 64, 96, 128};
  return kBounds;
}

}  // namespace

BlockMetrics BlockMetrics::Resolve(obs::MetricsRegistry* reg) {
  if (reg == nullptr) return {};
  return {reg->GetHistogram("block.build_us", obs::LatencyBoundsUs()),
          reg->GetGauge("block.dedup_ratio"),
          reg->GetHistogram("sample.frontier_dup_ratio", RatioBounds()),
          reg->GetCounter("block.gather_bytes")};
}

SampledBlock SampledBlock::Build(std::span<const VertexId> roots,
                                 std::span<const std::vector<VertexId>> hops,
                                 std::span<const uint32_t> fans) {
  ALIGRAPH_CHECK_EQ(hops.size(), fans.size());
  Timer build_timer;
  const BlockMetrics metrics = obs::DefaultHandles<BlockMetrics>();
  SampledBlock block;
  // A k-hop tree over B roots has B * (1 + f1 + f1*f2 + ...) slots; unique
  // vertices are at most that many.
  size_t slots = roots.size();
  for (const auto& hop : hops) slots += hop.size();
  block.globals_.reserve(slots);
  // Relabel table: a power of two >= 2 x slots cells, each a local id or
  // kEmpty; the key is read back through globals_. Linear probing from v's
  // home cell (Fibonacci hashing: the top bits of the product) walks to
  // the cell holding v's local id, or to the empty cell where it goes.
  constexpr uint32_t kEmpty = 0xffffffffu;
  const size_t cells = std::bit_ceil(std::max<size_t>(2 * slots, 2));
  const size_t mask = cells - 1;
  const int shift = 64 - std::countr_zero(cells);
  std::vector<uint32_t> table(cells, kEmpty);
  std::vector<VertexId>& globals = block.globals_;

  auto relabel = [&](VertexId v) {
    const uint64_t hash = uint64_t{v} * 0x9E3779B97F4A7C15ull;
    size_t i = static_cast<size_t>(hash >> shift);
    while (table[i] != kEmpty && globals[table[i]] != v) i = (i + 1) & mask;
    if (table[i] == kEmpty) {
      table[i] = static_cast<uint32_t>(globals.size());
      globals.push_back(v);
    }
    return table[i];
  };
  // hop_seen[l] == k + 1 once local id l occurred in hop k, so each hop's
  // distinct vertices are counted at one load and one store per slot.
  std::vector<uint32_t> hop_seen(slots, 0);

  block.root_locals_.reserve(roots.size());
  for (const VertexId r : roots) block.root_locals_.push_back(relabel(r));

  // Level k's slots are level k-1's src entries: the CSR of hop k maps each
  // previous-level slot (annotated with its occupant's local id) to `fan`
  // freshly relabeled neighbors, preserving the flat layout's slot order.
  const std::vector<uint32_t>* prev_slots = &block.root_locals_;
  block.hops_.reserve(hops.size());
  for (size_t k = 0; k < hops.size(); ++k) {
    const uint32_t fan = fans[k];
    const std::vector<VertexId>& flat = hops[k];
    ALIGRAPH_CHECK_EQ(flat.size(), prev_slots->size() * fan);
    BlockHop hop;
    hop.fan = fan;
    hop.dst = *prev_slots;
    hop.offsets.reserve(hop.dst.size() + 1);
    hop.src.reserve(flat.size());
    for (size_t r = 0; r <= hop.dst.size(); ++r) {
      hop.offsets.push_back(static_cast<uint32_t>(r * fan));
    }
    const uint32_t stamp = static_cast<uint32_t>(k + 1);
    size_t distinct = 0;
    for (const VertexId v : flat) {
      const uint32_t local = relabel(v);
      hop.src.push_back(local);
      distinct += hop_seen[local] != stamp;
      hop_seen[local] = stamp;
    }
    const double dup_ratio =
        distinct == 0 ? 1.0 : static_cast<double>(flat.size()) / distinct;
    if (metrics.frontier_dup_ratio != nullptr) {
      metrics.frontier_dup_ratio->Record(dup_ratio);
    }
    block.hops_.push_back(std::move(hop));
    prev_slots = &block.hops_.back().src;
  }

  if (metrics.build_us != nullptr) {
    metrics.build_us->Record(build_timer.ElapsedMicros());
    metrics.dedup_ratio->Set(block.dedup_ratio());
  }
  return block;
}

size_t SampledBlock::total_slots() const {
  size_t slots = root_locals_.size();
  for (const BlockHop& hop : hops_) slots += hop.src.size();
  return slots;
}

double SampledBlock::dedup_ratio() const {
  if (globals_.empty()) return 1.0;
  return static_cast<double>(total_slots()) /
         static_cast<double>(globals_.size());
}

nn::Matrix GatherRows(const nn::Matrix& rows,
                      std::span<const uint32_t> locals) {
  nn::Matrix out(locals.size(), rows.cols());
  for (size_t i = 0; i < locals.size(); ++i) {
    const auto src = rows.Row(locals[i]);
    std::copy(src.begin(), src.end(), out.Row(i).begin());
  }
  return out;
}

}  // namespace block
}  // namespace aligraph
