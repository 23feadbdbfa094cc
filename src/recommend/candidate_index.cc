#include "recommend/candidate_index.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/top_k.h"
#include "common/vec_math.h"

namespace gemrec::recommend {

namespace {

using RankedEvent = TopK<ebsn::EventId>::Entry;

/// Partner u's top-k events of `events`, by descending Dot(ū', x̄).
/// The one ranking routine: the serial, pooled and delta builds all
/// call it, so their outputs agree bit for bit.
std::vector<RankedEvent> RankPartner(const GemModel& model,
                                     const std::vector<ebsn::EventId>& events,
                                     ebsn::UserId u, uint32_t top_k) {
  const float* uv = model.UserVec(u);
  const uint32_t dim = model.dim();
  TopK<ebsn::EventId> best(top_k);
  for (ebsn::EventId x : events) {
    best.Push(x, Dot(uv, model.EventVec(x), dim));
  }
  return best.TakeSortedDescending();
}

/// Runs `fn(i)` for i in [0, n), on `pool` when given. Each call must
/// write only its own outputs.
template <typename Fn>
void ForEachPartner(size_t n, ThreadPool* pool, Fn fn) {
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

std::vector<std::vector<ebsn::EventId>> TopKEventsPerUser(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k,
    ThreadPool* pool) {
  std::vector<std::vector<ebsn::EventId>> result(partners.size());
  ForEachPartner(partners.size(), pool, [&](size_t i) {
    const auto entries = RankPartner(model, events, partners[i], top_k);
    result[i].reserve(entries.size());
    for (const auto& e : entries) result[i].push_back(e.id);
  });
  return result;
}

std::vector<CandidatePair> BuildCandidatePairs(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k,
    ThreadPool* pool) {
  return BuildCandidateList(model, events, partners, top_k, nullptr, pool)
      .pairs;
}

CandidateList BuildCandidateList(const GemModel& model,
                                 const std::vector<ebsn::EventId>& events,
                                 const std::vector<ebsn::UserId>& partners,
                                 uint32_t top_k, const CandidateDelta* delta,
                                 ThreadPool* pool) {
  CandidateList list;
  const size_t num_partners = partners.size();
  const uint32_t dim = model.dim();
  if (top_k == 0 || top_k >= events.size()) {
    GEMREC_CHECK(delta == nullptr) << "an unpruned list has no k-th score";
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
    list.pairs.reserve(total);
    list.c.reserve(total);
    for (ebsn::UserId u : partners) {
      for (ebsn::EventId x : events) {
        list.pairs.push_back(CandidatePair{x, u});
        list.c.push_back(Dot(model.UserVec(u), model.EventVec(x), dim));
      }
    }
    return list;
  }

  // Every partner ranks more than k events, so its slice is exactly k
  // long and sits at i * k.
  const size_t k = top_k;
  if (delta != nullptr) {
    GEMREC_CHECK(delta->previous_pool_size > k &&
                 delta->previous_pool_size <= events.size());
    GEMREC_CHECK(delta->previous->num_points() == num_partners * k)
        << "previous list was built over other partners or top_k";
  }
  list.pairs.resize(num_partners * k);
  list.c.resize(num_partners * k);
  auto reusable = [&](size_t i) {
    if (delta == nullptr) return false;
    const ebsn::UserId u = partners[i];
    const std::vector<uint8_t>& dirty = *delta->dirty_users;
    if (u < dirty.size() && dirty[u] != 0) return false;
    const float kth = delta->previous->c_values()[i * k + k - 1];
    const float* uv = model.UserVec(u);
    for (size_t j = delta->previous_pool_size; j < events.size(); ++j) {
      if (Dot(uv, model.EventVec(events[j]), dim) > kth) return false;
    }
    return true;
  };
  ForEachPartner(num_partners, pool, [&](size_t i) {
    CandidatePair* pairs = list.pairs.data() + i * k;
    float* c = list.c.data() + i * k;
    if (reusable(i)) {
      GEMREC_DCHECK(delta->previous->pair(i * k).partner == partners[i]);
      std::copy_n(delta->previous->pairs().data() + i * k, k, pairs);
      std::copy_n(delta->previous->c_values().data() + i * k, k, c);
      return;
    }
    const auto entries = RankPartner(model, events, partners[i], top_k);
    for (size_t j = 0; j < k; ++j) {
      pairs[j] = CandidatePair{entries[j].id, partners[i]};
      c[j] = entries[j].score;
    }
  });
  return list;
}

std::vector<ebsn::UserId> AllUsers(uint32_t num_users) {
  std::vector<ebsn::UserId> users(num_users);
  std::iota(users.begin(), users.end(), 0);
  return users;
}

}  // namespace gemrec::recommend
