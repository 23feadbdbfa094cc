#include "recommend/query_kinds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace gemrec::recommend {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Sorts the first min(n + 1, size) entries and derives the
/// unreturned-bound + truncation shared by both exhaustive oracles:
/// one slot past the cut is enough to know the best dropped score.
std::vector<Recommendation> FinishExhaustive(
    std::vector<Recommendation> all, size_t n, float* bound_out) {
  const size_t sorted = std::min(all.size(), n + 1);
  std::partial_sort(all.begin(), all.begin() + sorted, all.end(),
                    RecommendationOrder);
  float bound = kNegInf;
  if (all.size() > n) bound = all[n].score;
  all.resize(std::min(all.size(), n));
  if (bound_out != nullptr) *bound_out = bound;
  return all;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPartner: return "partner";
    case QueryKind::kGroup: return "group";
    case QueryKind::kReciprocal: return "reciprocal";
  }
  return "unknown";
}

const char* GroupAggregatorName(GroupAggregator agg) {
  switch (agg) {
    case GroupAggregator::kSum: return "sum";
    case GroupAggregator::kMin: return "min";
  }
  return "unknown";
}

bool ParseQueryKind(const std::string& text, QueryKind* out) {
  if (text == "partner") {
    *out = QueryKind::kPartner;
  } else if (text == "group") {
    *out = QueryKind::kGroup;
  } else if (text == "reciprocal") {
    *out = QueryKind::kReciprocal;
  } else {
    return false;
  }
  return true;
}

bool ParseGroupAggregator(const std::string& text, GroupAggregator* out) {
  if (text == "sum") {
    *out = GroupAggregator::kSum;
  } else if (text == "min") {
    *out = GroupAggregator::kMin;
  } else {
    return false;
  }
  return true;
}

float PairwiseScore(const GemModel& model, ebsn::UserId user,
                    ebsn::UserId partner, ebsn::EventId event) {
  // Associates as (A + B) + C, the exact order TaSearch::pair_score
  // assembles the same three partial sums in.
  return model.ScoreUserEvent(user, event) +
         model.ScoreUserUser(user, partner) +
         model.ScoreUserEvent(partner, event);
}

float DirectedScore(const GemModel& model, ebsn::UserId viewer,
                    ebsn::UserId peer, ebsn::EventId event) {
  return model.ScoreUserEvent(viewer, event) +
         model.ScoreUserUser(viewer, peer);
}

float ReciprocalScore(const GemModel& model, ebsn::UserId user,
                      ebsn::UserId partner, ebsn::EventId event) {
  return std::min(DirectedScore(model, user, partner, event),
                  DirectedScore(model, partner, user, event));
}

float GroupEventScore(const GemModel& model, ebsn::UserId user,
                      const std::vector<ebsn::UserId>& members,
                      ebsn::EventId event, GroupAggregator agg) {
  GEMREC_CHECK(!members.empty()) << "group query with no members";
  if (agg == GroupAggregator::kSum) {
    float acc = 0.0f;
    for (const ebsn::UserId m : members) {
      acc += PairwiseScore(model, user, m, event);
    }
    return acc;
  }
  float worst = PairwiseScore(model, user, members[0], event);
  for (size_t i = 1; i < members.size(); ++i) {
    worst = std::min(worst, PairwiseScore(model, user, members[i], event));
  }
  return worst;
}

void ReciprocalQueryVector(const GemModel& model, ebsn::UserId u,
                           size_t point_dim, std::vector<float>* out) {
  const uint32_t k = model.dim();
  GEMREC_CHECK(point_dim == 2 * static_cast<size_t>(k) + 1);
  out->resize(point_dim);
  const float* uv = model.UserVec(u);
  std::copy(uv, uv + k, out->data());
  std::copy(uv, uv + k, out->data() + k);
  (*out)[2 * k] = 0.0f;
}

bool RecommendationOrder(const Recommendation& a, const Recommendation& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.event != b.event) return a.event < b.event;
  return a.partner < b.partner;
}

std::vector<Recommendation> GroupTopEvents(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    ebsn::UserId user, const std::vector<ebsn::UserId>& members,
    GroupAggregator agg, size_t n, float* bound_out) {
  std::vector<Recommendation> all;
  all.reserve(events.size());
  for (const ebsn::EventId x : events) {
    all.push_back(Recommendation{
        x, ebsn::kInvalidId, GroupEventScore(model, user, members, x, agg)});
  }
  return FinishExhaustive(std::move(all), n, bound_out);
}

std::vector<Recommendation> ReciprocalTopPairs(
    const GemModel& model, const TransformedSpace& space, ebsn::UserId user,
    size_t n, float* bound_out) {
  std::vector<Recommendation> all;
  all.reserve(space.num_points());
  for (size_t i = 0; i < space.num_points(); ++i) {
    const CandidatePair& pair = space.pair(i);
    if (pair.partner == user) continue;
    all.push_back(Recommendation{
        pair.event, pair.partner,
        ReciprocalScore(model, user, pair.partner, pair.event)});
  }
  return FinishExhaustive(std::move(all), n, bound_out);
}

size_t ReciprocalDepth(size_t n) { return std::max<size_t>(2 * n, 16); }

bool CertifyReciprocal(const GemModel& model, ebsn::UserId user, size_t n,
                       size_t depth, const std::vector<SearchHit>& forward,
                       float forward_bound, std::vector<Recommendation>* top,
                       float* bound_out) {
  top->clear();
  if (n == 0) {
    *bound_out = kNegInf;
    return true;
  }
  for (const SearchHit& hit : forward) {
    top->push_back(Recommendation{
        hit.pair.event, hit.pair.partner,
        ReciprocalScore(model, user, hit.pair.partner, hit.pair.event)});
  }
  std::sort(top->begin(), top->end(), RecommendationOrder);

  // Fewer hits than requested means the forward search enumerated
  // every non-excluded pair; nothing is unexamined.
  float bound = kNegInf;
  if (forward.size() >= depth) {
    bound = forward_bound + std::abs(forward_bound) *
                                static_cast<float>(2 * model.dim() + 2) *
                                0x1p-23f;
    // Unexamined pairs satisfy r <= d_forward <= bound, so a strictly
    // larger n-th reciprocal score certifies the top n.
    if (top->size() < n || !((*top)[n - 1].score > bound)) return false;
  }
  if (top->size() > n) bound = std::max(bound, (*top)[n].score);
  top->resize(std::min(top->size(), n));
  *bound_out = bound;
  return true;
}

std::vector<Recommendation> ReciprocalSearch(
    const GemModel& model, const TaSearch& searcher,
    const TransformedSpace& space, ebsn::UserId user, size_t n,
    ReciprocalScratch* scratch, float* bound_out, SearchStats* stats_out) {
  GEMREC_CHECK(scratch != nullptr);
  ReciprocalQueryVector(model, user, space.point_dim(), &scratch->query);
  SearchStats cumulative;
  float bound = kNegInf;
  for (size_t m = ReciprocalDepth(n);; m *= 2) {
    SearchStats fwd_stats;
    searcher.SearchInto(scratch->query, m, /*exclude_partner=*/user,
                        &scratch->hits, &fwd_stats, &scratch->ta);
    cumulative.points_examined += fwd_stats.points_examined;
    cumulative.sorted_accesses += fwd_stats.sorted_accesses;
    cumulative.examined_fraction = fwd_stats.examined_fraction;
    if (CertifyReciprocal(model, user, n, m, scratch->hits,
                          fwd_stats.unreturned_bound, &scratch->rescored,
                          &bound)) {
      break;
    }
  }
  cumulative.unreturned_bound = bound;
  if (bound_out != nullptr) *bound_out = bound;
  if (stats_out != nullptr) *stats_out = cumulative;
  return scratch->rescored;
}

}  // namespace gemrec::recommend
