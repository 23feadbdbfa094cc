#include "recommend/candidate_index.h"

#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/top_k.h"
#include "common/vec_math.h"

namespace gemrec::recommend {

std::vector<std::vector<ebsn::EventId>> TopKEventsPerUser(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k,
    ThreadPool* pool) {
  const uint32_t dim = model.dim();
  std::vector<std::vector<ebsn::EventId>> result(partners.size());
  // Each shard writes only result[i]: no sharing, and the per-partner
  // ranking is the same code as the serial path, so the output is
  // bit-identical regardless of the pool (pinned by candidate_index
  // tests).
  auto rank_partner = [&](size_t i) {
    const float* uv = model.UserVec(partners[i]);
    TopK<ebsn::EventId> best(top_k);
    for (ebsn::EventId x : events) {
      best.Push(x, Dot(uv, model.EventVec(x), dim));
    }
    auto entries = best.TakeSortedDescending();
    result[i].reserve(entries.size());
    for (const auto& e : entries) result[i].push_back(e.id);
  };
  if (pool != nullptr && partners.size() > 1) {
    pool->ParallelFor(partners.size(), rank_partner);
  } else {
    for (size_t i = 0; i < partners.size(); ++i) rank_partner(i);
  }
  return result;
}

std::vector<CandidatePair> BuildCandidatePairs(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k,
    ThreadPool* pool) {
  std::vector<CandidatePair> pairs;
  const size_t num_partners = partners.size();
  if (top_k == 0 || top_k >= events.size()) {
    // Unpruned Table-VI space: |partners| · |X| pairs. Guard the size
    // product before reserving (a large synthetic sweep can overflow
    // size_t) and make the quadratic blow-up visible in logs.
    const size_t num_events = events.size();
    if (num_events > 0) {
      GEMREC_CHECK(num_partners <=
                   std::numeric_limits<size_t>::max() / num_events)
          << "candidate pair count |U|*|X| overflows size_t: "
          << num_partners << " users * " << num_events << " events";
    }
    const size_t total = num_partners * num_events;
    GEMREC_LOG(Warning)
        << "BuildCandidatePairs: top_k=" << top_k
        << " disables pruning; materializing all " << total
        << " event-partner pairs (" << num_partners << " users x "
        << num_events << " events)";
    pairs.reserve(total);
    for (ebsn::UserId u : partners) {
      for (ebsn::EventId x : events) {
        pairs.push_back(CandidatePair{x, u});
      }
    }
    return pairs;
  }
  const auto per_partner =
      TopKEventsPerUser(model, events, partners, top_k, pool);
  pairs.reserve(num_partners * top_k);
  for (size_t i = 0; i < num_partners; ++i) {
    for (ebsn::EventId x : per_partner[i]) {
      pairs.push_back(CandidatePair{x, partners[i]});
    }
  }
  return pairs;
}

std::vector<ebsn::UserId> AllUsers(uint32_t num_users) {
  std::vector<ebsn::UserId> users(num_users);
  std::iota(users.begin(), users.end(), 0);
  return users;
}

}  // namespace gemrec::recommend
