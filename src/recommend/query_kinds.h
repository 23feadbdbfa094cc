#ifndef GEMREC_RECOMMEND_QUERY_KINDS_H_
#define GEMREC_RECOMMEND_QUERY_KINDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ebsn/types.h"
#include "recommend/gem_model.h"
#include "recommend/recommender.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {

/// The workload a query asks for. Wire values are frozen (they travel
/// in every request frame); add new kinds at the end only.
enum class QueryKind : uint8_t {
  /// The paper's joint event-partner ranking: top-n (event, partner)
  /// pairs under f(u, u', x) = u·x + u'·x + u·u' (Eqn 8).
  kPartner = 0,
  /// Group-event ranking: given u and a fixed partner set G, top-n
  /// events under S(x) = agg_{u' in G} f(u, u', x). Results carry
  /// partner = kInvalidId (the partners are the request's group).
  kGroup = 1,
  /// Reciprocal partner ranking: top-n (event, partner) pairs under
  /// r(u, u', x) = min(d(u -> u', x), d(u' -> u, x)) where the
  /// directed score d(a -> b, x) = a·x + a·b keeps only the terms the
  /// viewer a cares about — both sides must want the match.
  kReciprocal = 2,
};

/// How a group query folds its per-member pairwise terms.
enum class GroupAggregator : uint8_t {
  kSum = 0,  // social welfare: the group's total utility
  kMin = 1,  // least-misery: the unhappiest member decides
};

const char* QueryKindName(QueryKind kind);
const char* GroupAggregatorName(GroupAggregator agg);
/// Parses the CLI spellings ("partner", "group", "reciprocal" /
/// "sum", "min"); returns false on anything else.
bool ParseQueryKind(const std::string& text, QueryKind* out);
bool ParseGroupAggregator(const std::string& text, GroupAggregator* out);

/// Eqn 8 pairwise score, assembled exactly the way the TA engine
/// assembles it over the transformed space (A + B + C as three partial
/// sums) so offline oracles and served answers agree bitwise.
float PairwiseScore(const GemModel& model, ebsn::UserId user,
                    ebsn::UserId partner, ebsn::EventId event);

/// Directed score d(viewer -> peer, event) = viewer·event +
/// viewer·peer: the two Eqn 8 terms that involve the viewer. Equals
/// q·p over the transformed space for the query (viewer, viewer, 0) —
/// bitwise, because TA assembles q·p as Dot(q, p, K) +
/// Dot(q + K, p + K, K) + 0·C and the space stores verbatim embedding
/// rows.
float DirectedScore(const GemModel& model, ebsn::UserId viewer,
                    ebsn::UserId peer, ebsn::EventId event);

/// min of the two directed scores; symmetric in (user, partner).
float ReciprocalScore(const GemModel& model, ebsn::UserId user,
                      ebsn::UserId partner, ebsn::EventId event);

/// Aggregated group score S(x) = agg_{m in members} f(user, m, x).
/// Member order is part of the contract: kSum accumulates in the given
/// order, so every replica (and the oracle) produces identical floats.
/// `members` must be non-empty.
float GroupEventScore(const GemModel& model, ebsn::UserId user,
                      const std::vector<ebsn::UserId>& members,
                      ebsn::EventId event, GroupAggregator agg);

/// Fills the forward directed-retrieval query (u, u, 0): zeroing the
/// C coordinate drops the peer's own event-interest term, turning the
/// stock TA/batch engines into exact d(u -> ·, ·) retrievers. All
/// coordinates stay nonnegative (rectified embeddings), so the TA
/// bound argument is unchanged.
void ReciprocalQueryVector(const GemModel& model, ebsn::UserId u,
                           size_t point_dim, std::vector<float>* out);

/// Canonical result order shared by the oracles, the serve paths and
/// the shard merger: score descending, ties by (event, partner)
/// ascending — N-shard merges reproduce it bit-for-bit.
bool RecommendationOrder(const Recommendation& a, const Recommendation& b);

/// Exhaustive group-event ranking over `events` (the oracle, and the
/// serve-path scan — group scoring has no sorted-list structure to
/// prune with, so serving runs this same code over its event slice).
/// `bound_out`, when non-null, receives a sound upper bound on the
/// score of every event NOT returned: the best dropped score, or -inf
/// when nothing was dropped (SearchStats::unreturned_bound
/// convention).
std::vector<Recommendation> GroupTopEvents(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    ebsn::UserId user, const std::vector<ebsn::UserId>& members,
    GroupAggregator agg, size_t n, float* bound_out = nullptr);

/// Exhaustive reciprocal ranking over a transformed space (the
/// oracle). Pairs with partner == user are excluded, mirroring the
/// partner serve path. Bound semantics as in GroupTopEvents.
std::vector<Recommendation> ReciprocalTopPairs(
    const GemModel& model, const TransformedSpace& space, ebsn::UserId user,
    size_t n, float* bound_out = nullptr);

/// Reusable buffers for ReciprocalSearch (allocation-free steady
/// state, like TaSearch::Scratch).
struct ReciprocalScratch {
  TaSearch::Scratch ta;
  std::vector<float> query;
  std::vector<SearchHit> hits;
  std::vector<Recommendation> rescored;
};

/// Certified reciprocal top-n via iterative deepening over the exact
/// TA engine:
///
///   m = max(4n, 64); forward-search top-m with query (u, u, 0);
///   rescore every hit with the exact reciprocal min; keep the top n
///   under RecommendationOrder; stop when the n-th reciprocal score
///   strictly exceeds the forward search's unreturned bound (no
///   unexamined pair can reach the top n, since r <= d_forward), or
///   the space is exhausted; else double m.
///
/// Termination: m doubles past the space size, at which point the
/// forward search exhausts and the ranking is exact by enumeration.
///
/// `bound_out` receives max(best dropped reciprocal score, forward
/// unreturned bound at the stopping m) — a sound upper bound on every
/// unreturned pair's reciprocal score, and never above the n-th
/// returned score (so the shard merger's completeness certificate
/// kth >= max shard bound holds). -inf when nothing was left out.
///
/// `stats_out`, when non-null, receives the final forward search's
/// stats (cumulative examined/sorted counters across deepening
/// rounds).
std::vector<Recommendation> ReciprocalSearch(
    const GemModel& model, const TaSearch& searcher,
    const TransformedSpace& space, ebsn::UserId user, size_t n,
    ReciprocalScratch* scratch, float* bound_out = nullptr,
    SearchStats* stats_out = nullptr);

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_QUERY_KINDS_H_
