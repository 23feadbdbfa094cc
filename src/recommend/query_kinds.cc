#include "recommend/query_kinds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/vec_math.h"
#include "recommend/candidate_index.h"

namespace gemrec::recommend {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// The relative slack ε(d) = (d + 4) · 2^-23 of a value computed with at
/// most d fp32 roundings on every product's path (DESIGN §17.2).
double RoundingSlack(size_t d) {
  return std::ldexp(static_cast<double>(d) + 4.0, -23);
}

/// Keeps `rec` if it is among the `cap` best under RecommendationOrder;
/// the heap's front is the worst held.
void PushBounded(std::vector<Recommendation>* heap, size_t cap,
                 const Recommendation& rec) {
  if (heap->size() < cap) {
    heap->push_back(rec);
    std::push_heap(heap->begin(), heap->end(), RecommendationOrder);
  } else if (RecommendationOrder(rec, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), RecommendationOrder);
    heap->back() = rec;
    std::push_heap(heap->begin(), heap->end(), RecommendationOrder);
  }
}

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

EventsByNorm OrderEventsByNorm(const GemModel& model,
                               const std::vector<ebsn::EventId>& events) {
  std::vector<double> norms(events.size());
  for (size_t j = 0; j < events.size(); ++j) {
    norms[j] = NormInDouble(model.EventVec(events[j]), model.dim());
  }
  EventsByNorm ordered;
  ordered.ids.reserve(events.size());
  ordered.norms.reserve(events.size());
  for (const uint32_t j : DescendingNormOrder(norms)) {
    ordered.ids.push_back(events[j]);
    ordered.norms.push_back(norms[j]);
  }
  return ordered;
}

std::vector<Recommendation> GroupScan(const GemModel& model,
                                      const EventsByNorm& events,
                                      ebsn::UserId user,
                                      const std::vector<ebsn::UserId>& members,
                                      GroupAggregator agg, size_t n,
                                      GroupScanScratch* scratch,
                                      SearchStats* stats) {
  GEMREC_CHECK(!members.empty()) << "group query with no members";
  const uint32_t dim = model.dim();
  const size_t size = members.size();
  const bool is_sum = agg == GroupAggregator::kSum;
  // The slack derivation of DESIGN §17.2 needs its largest rounding
  // count, 2·dim + |M| + 3, times 2^-24 to be at most 1/4.
  GEMREC_CHECK(2 * static_cast<size_t>(dim) + size + 3 <= (size_t{1} << 22))
      << "group too large to bound: dim " << dim << ", " << size
      << " members";
  const float* uv = model.UserVec(user);
  const double user_norm = NormInDouble(uv, dim);
  // Gradual underflow: each fp32 product may lose up to 2^-150 more,
  // and an exact score sums 3·|M|·dim of them.
  const double floor =
      std::ldexp(static_cast<double>((3 * size + 1) * dim), -149);
  const double slope_floor = std::ldexp(static_cast<double>(dim), -149);

  // Per member: the exact score's u·m̄, and in double ‖m̄‖, u·m̄ and
  // (min) the line ‖ū + m̄‖·‖x̄‖ + u·m̄ bounding its term, widened.
  std::vector<float>& member_dots = scratch->member_dots;
  member_dots.resize(size);
  scratch->slopes.resize(is_sum ? 0 : size);
  scratch->intercepts.resize(is_sum ? 0 : size);
  const double term_slack = RoundingSlack(dim + 2);
  double sum_norms = 0.0;  // Σ ‖m̄‖
  double sum_dots = 0.0;   // Σ u·m̄
  for (size_t i = 0; i < size; ++i) {
    const float* mv = model.UserVec(members[i]);
    member_dots[i] = Dot(uv, mv, dim);
    double dot = 0.0;
    double joint = 0.0;  // ‖ū + m̄‖²
    for (uint32_t t = 0; t < dim; ++t) {
      const double u = uv[t];
      const double m = mv[t];
      dot += u * m;
      joint += (u + m) * (u + m);
    }
    const double member_norm = NormInDouble(mv, dim);
    sum_norms += member_norm;
    sum_dots += dot;
    if (!is_sum) {
      scratch->slopes[i] = std::sqrt(joint) +
                           term_slack * (user_norm + member_norm) +
                           slope_floor;
      scratch->intercepts[i] =
          dot + term_slack * user_norm * member_norm + floor;
    }
  }

  // The sum: S(x) = r·x̄ + Σ u·m̄ in real arithmetic, and its computed
  // value lies within ε·(W·‖x̄‖ + V), W = |M|·‖ū‖ + Σ ‖m̄‖ and
  // V = ‖ū‖·Σ ‖m̄‖. An exact score has dim + |M| + 2 roundings on each
  // product's path; the one-dot estimate Dot(r, x̄) adds dim + 1 (the
  // reduced dot's and r's rounding to fp32).
  const double spread = static_cast<double>(size) * user_norm + sum_norms;
  const double offset = user_norm * sum_norms;
  double slope = 0.0;
  double intercept = 0.0;
  double dot_slope = 0.0;
  double dot_intercept = 0.0;
  if (is_sum) {
    scratch->reduced.resize(dim);
    double r_sq = 0.0;
    for (uint32_t t = 0; t < dim; ++t) {
      double r = static_cast<double>(size) * uv[t];
      for (const ebsn::UserId m : members) r += model.UserVec(m)[t];
      scratch->reduced[t] = static_cast<float>(r);
      r_sq += r * r;
    }
    const double slack = RoundingSlack(dim + size + 2);
    slope = std::sqrt(r_sq) + slack * spread + slope_floor;
    intercept = sum_dots + slack * offset + floor;
    const double dot_slack = RoundingSlack(2 * dim + size + 3);
    dot_slope = dot_slack * spread + slope_floor;
    dot_intercept = sum_dots + dot_slack * offset + floor;
  }

  // The bound on every event of norm `norm` or less.
  auto norm_bound = [&](double norm) {
    if (is_sum) return slope * norm + intercept;
    double bound = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < size; ++i) {
      bound = std::min(bound,
                       scratch->slopes[i] * norm + scratch->intercepts[i]);
    }
    return bound;
  };

  std::vector<Recommendation>& heap = scratch->heap;
  heap.clear();
  // n + 1 held, or every event when n reaches the slice.
  const size_t cap = std::min(n, events.ids.size()) + 1;
  size_t scored = 0;
  for (size_t j = 0; j < events.ids.size(); ++j) {
    const double norm = events.norms[j];
    const bool full = heap.size() == cap;
    const float kth = full ? heap.front().score : kNegInf;
    // Every later event has a smaller or equal norm, so a smaller or
    // equal bound: none can reach the (n + 1)-th score.
    if (full && norm_bound(norm) < kth) break;
    const ebsn::EventId x = events.ids[j];
    const float* xv = model.EventVec(x);
    if (is_sum && full &&
        static_cast<double>(Dot(scratch->reduced.data(), xv, dim)) +
                dot_slope * norm + dot_intercept <
            kth) {
      continue;
    }
    ++scored;
    // PairwiseScore's association, (u·x̄ + u·m̄) + m̄·x̄, with u·x̄ taken
    // once per event.
    const float ux = Dot(uv, xv, dim);
    float score = 0.0f;
    size_t i = 0;
    for (; i < size; ++i) {
      const float term =
          (ux + member_dots[i]) + Dot(model.UserVec(members[i]), xv, dim);
      if (is_sum) {
        score += term;
        continue;
      }
      // The min is at most this term: strictly below the (n + 1)-th
      // score, the event cannot enter.
      if (term < kth) break;
      score = i == 0 ? term : std::min(score, term);
    }
    if (i < size) continue;
    PushBounded(&heap, cap, Recommendation{x, ebsn::kInvalidId, score});
  }

  std::sort_heap(heap.begin(), heap.end(), RecommendationOrder);
  stats->unreturned_bound = heap.size() > n ? heap[n].score : kNegInf;
  stats->points_examined = scored;
  stats->sorted_accesses = 0;
  stats->examined_fraction =
      events.ids.empty() ? 0.0
                         : static_cast<double>(scored) /
                               static_cast<double>(events.ids.size());
  const size_t returned = std::min(n, heap.size());
  return std::vector<Recommendation>(heap.begin(), heap.begin() + returned);
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
