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

/// Exhaustive group-event ranking over `events`: the oracle GroupScan
/// is tested against, scoring every event with GroupEventScore.
/// `bound_out`, when non-null, receives a sound upper bound on the
/// score of every event NOT returned: the best dropped score, or -inf
/// when nothing was dropped (SearchStats::unreturned_bound
/// convention).
std::vector<Recommendation> GroupTopEvents(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    ebsn::UserId user, const std::vector<ebsn::UserId>& members,
    GroupAggregator agg, size_t n, float* bound_out = nullptr);

/// The scan domain of GroupScan: events in descending ‖x̄‖ order, ties
/// by their position in the input (DescendingNormOrder, the order the
/// pruned candidate build walks), each with its ‖x̄‖ in double.
struct EventsByNorm {
  std::vector<ebsn::EventId> ids;
  std::vector<double> norms;
};
EventsByNorm OrderEventsByNorm(const GemModel& model,
                               const std::vector<ebsn::EventId>& events);

/// Reusable buffers for GroupScan: once warm, a scan allocates only
/// the vector it returns.
struct GroupScanScratch {
  std::vector<Recommendation> heap;  // top n + 1, worst at the front
  std::vector<float> member_dots;    // u·m̄ per member
  std::vector<float> reduced;        // sum: r = |M|·ū + Σ m̄ in fp32
  std::vector<double> slopes;        // min: per-member bound lines
  std::vector<double> intercepts;
};

/// The served group ranking: bitwise GroupTopEvents over the same
/// events (items, scores and bound), without scoring most of them.
/// Walks `events` in descending norm order and keeps the top n + 1
/// under RecommendationOrder; once n + 1 are held, the walk stops at
/// the first event whose norm bound is strictly below the (n + 1)-th
/// score, and skips events a cheaper bound rules out (DESIGN §17.2):
///
///   sum: S(x) = r·x̄ + Σ u·m̄ with r = |M|·ū + Σ m̄. The walk stops on
///        ‖r‖·‖x̄‖ + Σ u·m̄; an event is scored only when its one-dot
///        bound Dot(r, x̄) + Σ u·m̄ reaches the (n + 1)-th score.
///   min: the walk stops on min over m of ‖ū + m̄‖·‖x̄‖ + u·m̄; an event
///        drops out at the first member term strictly below that score.
///
/// Every bound is widened by the rounding slack derived in §17.2.
/// Exact scores take u·x̄ once per event and u·m̄ once per query and
/// associate as PairwiseScore does, so they are bitwise
/// GroupEventScore. `stats` receives the bound (GroupTopEvents'),
/// points_examined = the events scored exactly, and their fraction of
/// `events`. `members` must be non-empty.
std::vector<Recommendation> GroupScan(const GemModel& model,
                                      const EventsByNorm& events,
                                      ebsn::UserId user,
                                      const std::vector<ebsn::UserId>& members,
                                      GroupAggregator agg, size_t n,
                                      GroupScanScratch* scratch,
                                      SearchStats* stats);

/// Exhaustive reciprocal ranking over a transformed space (the
/// oracle). Pairs with partner == user are excluded, mirroring the
/// partner serve path. Bound semantics as in GroupTopEvents.
std::vector<Recommendation> ReciprocalTopPairs(
    const GemModel& model, const TransformedSpace& space, ebsn::UserId user,
    size_t n, float* bound_out = nullptr);

/// First forward depth m of the reciprocal deepening loop, max(2n, 16);
/// every uncertified round doubles it. Because r <= d_forward, the
/// reciprocal top n sits near the forward top: at 2n almost every
/// query certifies on its first walk, and a deeper first walk only
/// costs examined pairs.
size_t ReciprocalDepth(size_t n);

/// The certificate step of the reciprocal deepening loop — the one
/// implementation shared by ReciprocalSearch (exact TA) and the
/// serving batch walk (BatchTaSearch with query (u, u, 0)).
///
/// `forward` holds the forward top-`depth` hits for `user` (descending
/// directed score, partner == user excluded) and `forward_bound` the
/// search's bound on every pair it did not return. Every hit is
/// rescored with the exact ReciprocalScore into `top`, sorted under
/// RecommendationOrder. The answer is certified when the forward
/// search was exhausted (fewer than `depth` hits), or when the n-th
/// reciprocal score strictly exceeds the widened forward bound
///
///   forward_bound + (2K + 2) * 2^-23 * |forward_bound|.
///
/// The slack absorbs fp32 rounding between the engine's score domain
/// (the batch walk re-ranks with one flat (2K+1)-term Dot) and
/// DirectedScore (two K-term dots): every term is nonnegative, so each
/// computation lies within (2K+1) * 2^-24 relative of the real sum.
/// Unreturned pairs then satisfy r <= d_forward <= widened bound < the
/// n-th returned score.
///
/// Returns false (leaving `top` unspecified) when the caller must
/// search again at a greater depth. On success `top` holds the top n
/// and `bound_out` max(best dropped reciprocal score, widened bound)
/// — -inf when nothing was left out (or n == 0): sound for every
/// unreturned pair and never above the n-th returned score.
bool CertifyReciprocal(const GemModel& model, ebsn::UserId user, size_t n,
                       size_t depth, const std::vector<SearchHit>& forward,
                       float forward_bound, std::vector<Recommendation>* top,
                       float* bound_out);

/// Reusable buffers for ReciprocalSearch (allocation-free steady
/// state, like TaSearch::Scratch).
struct ReciprocalScratch {
  TaSearch::Scratch ta;
  std::vector<float> query;
  std::vector<SearchHit> hits;
  std::vector<Recommendation> rescored;
};

/// Certified reciprocal top-n via iterative deepening over the exact
/// TA engine — the offline engine and a test oracle; serving runs the
/// same CertifyReciprocal step on the quantized batch walk:
///
///   m = ReciprocalDepth(n); forward-search top-m with query (u, u, 0);
///   CertifyReciprocal; else double m.
///
/// Termination: m doubles past the space size, at which point the
/// forward search exhausts and the ranking is exact by enumeration.
///
/// `bound_out` receives the certificate's bound (see
/// CertifyReciprocal); the shard merger's completeness certificate
/// kth >= max shard bound holds because it never exceeds the n-th
/// returned score.
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
