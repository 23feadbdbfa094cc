#include "recommend/candidate_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/top_k.h"
#include "common/vec_math.h"

namespace gemrec::recommend {

namespace {

/// One pool as every partner's walk reads it: the event norms, the
/// positions in descending norm order (ties by position) and the rows
/// gathered in that order. Built once per build and immutable after,
/// so ranking chunks on several threads share one.
class PoolView {
 public:
  using Ranking = TopK<ebsn::EventId, RankKey>;

  PoolView(const GemModel& model, const std::vector<ebsn::EventId>& events)
      : model_(model),
        dim_(model.dim()),
        widen_(1.0 + std::ldexp(static_cast<double>(dim_) + 4.0, -23)),
        floor_(std::ldexp(static_cast<double>(dim_), -148)) {
    // The slack derivation of DESIGN §8.4 needs dim · 2^-24 <= 1/4.
    GEMREC_CHECK(dim_ <= (1u << 22)) << "latent dim too large: " << dim_;
    const size_t n = events.size();
    norms_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      norms_[j] = NormInDouble(model.EventVec(events[j]), dim_);
    }
    order_ = DescendingNormOrder(norms_);
    ids_.resize(n);
    rows_.resize(n * dim_);
    for (size_t j = 0; j < n; ++j) {
      ids_[j] = events[order_[j]];
      std::copy_n(model.EventVec(ids_[j]), dim_, rows_.data() + j * dim_);
    }
  }

  /// Partner u's ‖ū'‖ widened by the rounding slack; the argument of
  /// Bound.
  double WidenedNorm(ebsn::UserId u) const {
    return NormInDouble(model_.UserVec(u), dim_) * widen_;
  }

  /// An upper bound on the computed Dot(ū', x̄) of the event at pool
  /// position j, from the partner's WidenedNorm. A zero row makes every
  /// product an exact zero, so the underflow floor is added only to a
  /// nonzero product, and the bound of a zero row is 0.
  double Bound(double widened_norm, size_t j) const {
    const double bound = widened_norm * norms_[j];
    return bound > 0.0 ? bound + floor_ : bound;
  }

  /// Partner u's top-k events, the k greatest by RankKey in descending
  /// order, ranked in `best`: the caller's scratch, one per thread.
  /// Events are scored by descending norm; once the heap is full and
  /// the next event's bound is strictly below the k-th score, no event
  /// left can beat or tie the k-th key, so the walk stops. The view
  /// lives until `best`'s next use.
  const std::vector<Ranking::Entry>& Rank(ebsn::UserId u, size_t k,
                                          Ranking* best) const {
    const float* uv = model_.UserVec(u);
    const double widened = WidenedNorm(u);
    best->Reset(k);
    for (size_t j = 0; j < order_.size(); ++j) {
      if (best->full() &&
          Bound(widened, order_[j]) < best->Threshold().dot) {
        break;
      }
      best->Push(ids_[j],
                 RankKey{Dot(uv, rows_.data() + j * dim_, dim_), order_[j]});
    }
    return best->SortDescendingInPlace();
  }

 private:
  const GemModel& model_;
  const uint32_t dim_;
  /// 1 + ε with ε = (dim + 4) · 2^-23, and the underflow term
  /// dim · 2^-148 (DESIGN §8.4).
  const double widen_;
  const double floor_;
  std::vector<double> norms_;       // by pool position
  std::vector<uint32_t> order_;     // positions, descending norm
  std::vector<ebsn::EventId> ids_;  // events in that order
  std::vector<float> rows_;         // their rows in that order
};

}  // namespace

double NormInDouble(const float* x, uint32_t dim) {
  double sum = 0.0;
  for (uint32_t i = 0; i < dim; ++i) {
    sum += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return std::sqrt(sum);
}

std::vector<uint32_t> DescendingNormOrder(const std::vector<double>& norms) {
  std::vector<uint32_t> order(norms.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return norms[a] > norms[b] || (norms[a] == norms[b] && a < b);
  });
  return order;
}

std::vector<std::vector<ebsn::EventId>> TopKEventsPerUser(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k) {
  const PoolView pool(model, events);
  PoolView::Ranking best(top_k);
  std::vector<std::vector<ebsn::EventId>> result(partners.size());
  for (size_t i = 0; i < partners.size(); ++i) {
    for (const auto& e : pool.Rank(partners[i], top_k, &best)) {
      result[i].push_back(e.id);
    }
  }
  return result;
}

std::vector<CandidatePair> BuildCandidatePairs(
    const GemModel& model, const std::vector<ebsn::EventId>& events,
    const std::vector<ebsn::UserId>& partners, uint32_t top_k) {
  return BuildCandidateList(model, events, partners, top_k).pairs;
}

CandidateList BuildCandidateList(const GemModel& model,
                                 const std::vector<ebsn::EventId>& events,
                                 const std::vector<ebsn::UserId>& partners,
                                 uint32_t top_k, const CandidateDelta* delta) {
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
  if (delta != nullptr) list.ranked.assign(num_partners, 0);
  const PoolView pool(model, events);
  auto dirty = [&](ebsn::UserId u) {
    const std::vector<uint8_t>& users = *delta->dirty_users;
    return u < users.size() && users[u] != 0;
  };
  auto reusable = [&](size_t i) {
    if (delta == nullptr) return false;
    const ebsn::UserId u = partners[i];
    if (dirty(u)) return false;
    if (delta->previous_pool_size == events.size()) return true;
    const float kth = delta->previous->c_values()[i * k + k - 1];
    const float* uv = model.UserVec(u);
    const double widened = pool.WidenedNorm(u);
    for (size_t j = delta->previous_pool_size; j < events.size(); ++j) {
      if (pool.Bound(widened, j) < kth) continue;
      if (Dot(uv, model.EventVec(events[j]), dim) > kth) return false;
    }
    return true;
  };
  // Each partner writes only its own slice, and a slice depends on its
  // partner alone, so the chunks may run in any order on any thread.
  auto rank_chunk = [&](size_t begin, size_t end) {
    PoolView::Ranking best(k);
    for (size_t i = begin; i < end; ++i) {
      CandidatePair* pairs = list.pairs.data() + i * k;
      float* c = list.c.data() + i * k;
      if (reusable(i)) {
        GEMREC_DCHECK(delta->previous->pair(i * k).partner == partners[i]);
        std::copy_n(delta->previous->pairs().data() + i * k, k, pairs);
        std::copy_n(delta->previous->c_values().data() + i * k, k, c);
        continue;
      }
      if (delta != nullptr) list.ranked[i] = 1;
      const auto& top = pool.Rank(partners[i], k, &best);
      for (size_t j = 0; j < k; ++j) {
        pairs[j] = CandidatePair{top[j].id, partners[i]};
        c[j] = top[j].score.dot;
      }
    }
  };
  // The chunk count follows the partners to rank: all of them for a full
  // build, the dirty ones for a delta. A clean partner's reuse check
  // costs a norm and a bound per appended event, a small share of a
  // rank, so it is not counted.
  const size_t work =
      delta == nullptr
          ? num_partners
          : static_cast<size_t>(
                std::count_if(partners.begin(), partners.end(), dirty));
  ThreadPool::ForEachChunk(num_partners, work / kMinChunkPartners,
                           rank_chunk);
  return list;
}

std::vector<ebsn::UserId> AllUsers(uint32_t num_users) {
  std::vector<ebsn::UserId> users(num_users);
  std::iota(users.begin(), users.end(), 0);
  return users;
}

}  // namespace gemrec::recommend
