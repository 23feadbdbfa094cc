#ifndef GEMREC_RECOMMEND_CANDIDATE_INDEX_H_
#define GEMREC_RECOMMEND_CANDIDATE_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "ebsn/types.h"
#include "recommend/gem_model.h"
#include "recommend/space_transform.h"

namespace gemrec::recommend {

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
/// the matching subsequence of the whole list. `top_k == 0` or
/// `top_k >= events.size()` keeps every pair (the unpruned space of
/// Table VI) — this materializes all |partners| · |X| pairs, so it
/// logs a warning and checks against size_t overflow.
///
/// `pool` optionally parallelizes the per-partner scoring loop (caller
/// participates; output is identical to the serial result).
std::vector<CandidatePair> BuildCandidatePairs(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k,
    ThreadPool* pool = nullptr);

/// A candidate list with each pair's C = Dot(ū', x̄), the input of
/// TransformedSpace. In a pruned list C is bitwise the score that
/// ranked the pair, so each partner's slice is in descending C order.
struct CandidateList {
  std::vector<CandidatePair> pairs;
  std::vector<float> c;
};

/// What changed since `previous` was built, so that BuildCandidateList
/// can copy every other partner's slice out of it.
struct CandidateDelta {
  /// A pruned list built over the same partners and top_k, from the
  /// pool events[0, previous_pool_size), where previous_pool_size >
  /// top_k, and from the same event rows.
  const TransformedSpace* previous = nullptr;
  size_t previous_pool_size = 0;
  /// dirty_users[u] != 0 when user u's row changed since `previous`;
  /// ids past the end are clean.
  const std::vector<uint8_t>* dirty_users = nullptr;
};

/// BuildCandidatePairs plus C. With a `delta`, a partner's slice is
/// copied from `delta->previous` when the partner is clean and no event
/// appended since (events[previous_pool_size, end)) scores strictly
/// above its k-th score. TopK drops a push with score <= its threshold
/// without touching the heap, so that slice is bitwise what ranking
/// the whole pool again would give; every other partner is ranked
/// again. The result is identical to a build without `delta`.
CandidateList BuildCandidateList(const GemModel& model,
                                 const std::vector<ebsn::EventId>& events,
                                 const std::vector<ebsn::UserId>& partners,
                                 uint32_t top_k,
                                 const CandidateDelta* delta = nullptr,
                                 ThreadPool* pool = nullptr);

/// Per-partner top-k events (entry i ranks partners[i]), exposed
/// separately for tests and for the pruning study (Fig. 7). Partners
/// are independent, so `pool` shards the loop over them; each ranking
/// is computed exactly as in the serial path, making the result
/// bit-identical for any thread count.
std::vector<std::vector<ebsn::EventId>> TopKEventsPerUser(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k,
    ThreadPool* pool = nullptr);

/// The user ids 0..num_users-1: the partner list of an unsharded build.
std::vector<ebsn::UserId> AllUsers(uint32_t num_users);

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_CANDIDATE_INDEX_H_
