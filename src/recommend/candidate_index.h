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
