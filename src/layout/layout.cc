#include "layout/layout.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace aligraph {
namespace layout {

VertexLayout VertexLayout::Identity(VertexId n) {
  VertexLayout layout;
  layout.new_of_old.resize(n);
  layout.old_of_new.resize(n);
  std::iota(layout.new_of_old.begin(), layout.new_of_old.end(), VertexId{0});
  std::iota(layout.old_of_new.begin(), layout.old_of_new.end(), VertexId{0});
  return layout;
}

bool IsValidPermutation(const VertexLayout& layout, VertexId n) {
  if (layout.new_of_old.size() != static_cast<size_t>(n) ||
      layout.old_of_new.size() != static_cast<size_t>(n)) {
    return false;
  }
  std::vector<uint8_t> seen(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId nv = layout.new_of_old[v];
    if (nv >= n || seen[nv]) return false;
    seen[nv] = 1;
    if (layout.old_of_new[nv] != v) return false;
  }
  return true;
}

VertexLayout ComputeHotFirstLayout(const AttributedGraph& graph,
                                   std::span<const VertexId> hot_order) {
  const VertexId n = graph.num_vertices();
  VertexLayout layout;
  layout.new_of_old.assign(n, kInvalidVertex);
  layout.old_of_new.reserve(n);
  for (const VertexId v : hot_order) {
    ALIGRAPH_CHECK_LT(v, n) << "hot_order entry out of range";
    if (layout.new_of_old[v] != kInvalidVertex) continue;  // first wins
    layout.new_of_old[v] = static_cast<VertexId>(layout.old_of_new.size());
    layout.old_of_new.push_back(v);
  }
  for (VertexId v = 0; v < n; ++v) {
    if (layout.new_of_old[v] != kInvalidVertex) continue;
    layout.new_of_old[v] = static_cast<VertexId>(layout.old_of_new.size());
    layout.old_of_new.push_back(v);
  }
  return layout;
}

Result<AttributedGraph> ApplyLayout(const AttributedGraph& graph,
                                    const VertexLayout& layout) {
  if (!IsValidPermutation(layout, graph.num_vertices())) {
    return Status::InvalidArgument(
        "layout is not a permutation of the graph's vertex set");
  }
  return graph.Reordered(layout.new_of_old, layout.old_of_new);
}

std::vector<VertexId> MapToNew(const VertexLayout& layout,
                               std::span<const VertexId> old_ids) {
  std::vector<VertexId> out(old_ids.size());
  for (size_t i = 0; i < old_ids.size(); ++i) {
    out[i] = layout.ToNew(old_ids[i]);
  }
  return out;
}

std::vector<VertexId> MapToOld(const VertexLayout& layout,
                               std::span<const VertexId> new_ids) {
  std::vector<VertexId> out(new_ids.size());
  for (size_t i = 0; i < new_ids.size(); ++i) {
    out[i] = layout.ToOld(new_ids[i]);
  }
  return out;
}

nn::Matrix PermuteRows(const nn::Matrix& rows, const VertexLayout& layout) {
  ALIGRAPH_CHECK_EQ(rows.rows(), layout.num_vertices());
  nn::Matrix out(rows.rows(), rows.cols());
  for (size_t v = 0; v < rows.rows(); ++v) {
    const std::span<const float> src = rows.Row(v);
    std::copy(src.begin(), src.end(),
              out.Row(layout.ToNew(static_cast<VertexId>(v))).begin());
  }
  return out;
}

}  // namespace layout
}  // namespace aligraph
