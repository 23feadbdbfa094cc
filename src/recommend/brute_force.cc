#include "recommend/brute_force.h"

#include "common/logging.h"
#include "common/top_k.h"
#include "common/vec_math.h"

namespace gemrec::recommend {

BruteForceSearch::BruteForceSearch(const TransformedSpace* space)
    : space_(space) {
  GEMREC_CHECK(space != nullptr);
}

std::vector<SearchHit> BruteForceSearch::Search(
    const std::vector<float>& query, size_t n,
    ebsn::UserId exclude_partner, SearchStats* stats) const {
  GEMREC_CHECK(query.size() == space_->point_dim());
  const size_t num_points = space_->num_points();
  std::vector<SearchHit> out;
  SearchStats local_stats;
  if (num_points == 0 || n == 0) {
    if (stats != nullptr) *stats = local_stats;
    return out;
  }
  const uint32_t dim = space_->point_dim();
  TopK<uint32_t> heap(n);
  std::vector<float> point(dim);
  for (size_t i = 0; i < num_points; ++i) {
    if (space_->pair(i).partner == exclude_partner) continue;
    space_->CopyPoint(i, point.data());
    heap.Push(static_cast<uint32_t>(i), Dot(query.data(), point.data(), dim));
  }
  local_stats.points_examined = num_points;
  local_stats.examined_fraction = 1.0;
  auto entries = heap.TakeSortedDescending();
  out.reserve(entries.size());
  for (const auto& e : entries) {
    out.push_back(SearchHit{e.score, e.id, space_->pair(e.id)});
  }
  if (stats != nullptr) *stats = local_stats;
  return out;
}

}  // namespace gemrec::recommend
