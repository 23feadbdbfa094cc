#ifndef GEMREC_RECOMMEND_CANDIDATE_INDEX_H_
#define GEMREC_RECOMMEND_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ebsn/types.h"
#include "recommend/gem_model.h"
#include "recommend/space_transform.h"

namespace gemrec::recommend {

/// The order a partner ranks its pool events in: higher Dot(ū', x̄)
/// first, then lower pool position (the event's index in `events`).
/// Scores compare as floats, so +0 == -0 and the tie goes to the
/// position. Positions are distinct, so the order is total over one
/// pool and a partner's top-k does not depend on the order the events
/// are scored in.
struct RankKey {
  float dot;
  uint32_t position;
};
inline bool operator>(RankKey a, RankKey b) {
  return a.dot > b.dot || (a.dot == b.dot && a.position < b.position);
}
inline bool operator<=(RankKey a, RankKey b) { return !(a > b); }

/// The paper's search-space pruning (§IV): instead of all |U| · |X|
/// event-partner pairs, keep only each potential partner's top-k
/// events (by the partner's own preference ū'ᵀx̄) — a partner tends to
/// refuse invitations to events she is not interested in, so pairs
/// outside her top-k are unpromising. The candidate count drops from
/// O(|U|·|X|) to O(|U|·k).
///
/// `events` is the recommendable (e.g. upcoming/test) event set and
/// `partners` the partners to build for, in output order: AllUsers()
/// for the whole space, a shard's owned partners for its slice. Each
/// partner's pairs depend on that partner alone, so a subset's list is
/// the matching subsequence of the whole list. A partner's pairs are
/// its k greatest events by RankKey, in descending RankKey order.
/// `top_k == 0` or `top_k >= events.size()` keeps every pair in pool
/// order (the unpruned space of Table VI) — this materializes all
/// |partners| · |X| pairs, so it logs a warning and checks against
/// size_t overflow.
std::vector<CandidatePair> BuildCandidatePairs(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k);

/// A candidate list with each pair's C = Dot(ū', x̄), the input of
/// TransformedSpace. In a pruned list C is bitwise the score that
/// ranked the pair, so each partner's slice is in descending C order.
struct CandidateList {
  std::vector<CandidatePair> pairs;
  std::vector<float> c;
  /// Built with a delta: ranked[i] != 0 when partner slice i (pairs
  /// [i * k, (i + 1) * k)) was ranked again; every other slice is
  /// bitwise the previous list's. Empty without a delta.
  std::vector<uint8_t> ranked;
};

/// What changed since `previous` was built, so that BuildCandidateList
/// can copy every other partner's slice out of it.
struct CandidateDelta {
  /// A pruned list built over the same partners and top_k, from the
  /// pool events[0, previous_pool_size), where previous_pool_size >
  /// top_k, and from the same event rows. The events appended since,
  /// events[previous_pool_size, end), sit at higher pool positions
  /// than every event of `previous`.
  const TransformedSpace* previous = nullptr;
  size_t previous_pool_size = 0;
  /// dirty_users[u] != 0 when user u's row changed since `previous`;
  /// ids past the end are clean.
  const std::vector<uint8_t>* dirty_users = nullptr;
};

/// The fewest partners a pruned build ranks per chunk (see
/// BuildCandidateList).
inline constexpr size_t kMinChunkPartners = 256;

/// BuildCandidatePairs plus C. A pruned build scores each partner's
/// events in descending order of ‖x̄‖ and stops once the rounding-
/// widened Cauchy–Schwarz bound ‖ū'‖·‖x̄‖ of the next event falls
/// strictly below the k-th score held (DESIGN §8.4), so it computes a
/// small share of the |partners| · |X| dots; the slices are exactly
/// the exhaustive ranking's.
///
/// The partners are ranked in contiguous chunks, one per
/// kMinChunkPartners partners to rank (at least one), on the
/// calling thread and a pool that is joined before the call returns
/// (ThreadPool::ForEachChunk). A single chunk starts no thread. Each
/// partner writes only its own slice, so the output does not depend
/// on the chunking or the thread count.
///
/// With a `delta`, a partner's slice is copied from `delta->previous`
/// when the partner is clean and no appended event scores strictly
/// above its k-th score: an appended event that ties the k-th score
/// has the higher position and loses, so that slice is bitwise what
/// ranking the whole pool again would give. An appended event whose
/// norm bound is already below the k-th score is not scored. Every
/// other partner is ranked again, and `ranked` names those slices.
/// The pairs and C are identical to a build without `delta`. A delta
/// counts only its dirty partners as partners to rank, so one with
/// fewer than 2 · kMinChunkPartners dirty partners runs on the calling
/// thread alone.
CandidateList BuildCandidateList(const GemModel& model,
                                 const std::vector<ebsn::EventId>& events,
                                 const std::vector<ebsn::UserId>& partners,
                                 uint32_t top_k,
                                 const CandidateDelta* delta = nullptr);

/// Per-partner top-k events (entry i ranks partners[i]) in descending
/// RankKey order, by the same walk as the pruned build, serially on
/// the calling thread; exposed for tests. `top_k` must be positive; one
/// at least |events| ranks the whole pool.
std::vector<std::vector<ebsn::EventId>> TopKEventsPerUser(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k);

/// ‖x‖ of a dim-length row, in double. Each square of an fp32 value is
/// exact in double and cannot under- or overflow there, so only the
/// sum and the sqrt round.
double NormInDouble(const float* x, uint32_t dim);

/// The visiting order of the norm-ordered walks (the pruned candidate
/// build and the group scan): the positions of `norms` by descending
/// norm, ties by position.
std::vector<uint32_t> DescendingNormOrder(const std::vector<double>& norms);

/// The user ids 0..num_users-1: the partner list of an unsharded build.
std::vector<ebsn::UserId> AllUsers(uint32_t num_users);

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_CANDIDATE_INDEX_H_
