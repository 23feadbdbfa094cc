#include "recommend/ta_search.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/vec_math.h"

namespace gemrec::recommend {
namespace {

/// Default workspace for the wrapper API. Thread-local so concurrent
/// readers (e.g. a serving pool) never contend or share buffers.
thread_local TaSearch::Scratch t_default_scratch;

}  // namespace

TaSearch::TaSearch(const TransformedSpace* space)
    : owned_index_(std::make_unique<SpaceIndex>(space)),
      index_(owned_index_.get()),
      space_(space),
      latent_dim_(owned_index_->latent_dim()) {}

TaSearch::TaSearch(const SpaceIndex* index)
    : index_(index),
      space_(&index->space()),
      latent_dim_(index->latent_dim()) {
  GEMREC_CHECK(index != nullptr);
}

std::vector<SearchHit> TaSearch::Search(const std::vector<float>& query,
                                        size_t n,
                                        ebsn::UserId exclude_partner,
                                        SearchStats* stats) const {
  std::vector<SearchHit> out;
  SearchInto(query, n, exclude_partner, &out, stats, nullptr);
  return out;
}

void TaSearch::SearchInto(const std::vector<float>& query, size_t n,
                          ebsn::UserId exclude_partner,
                          std::vector<SearchHit>* out, SearchStats* stats,
                          Scratch* scratch) const {
  GEMREC_CHECK(out != nullptr);
  GEMREC_CHECK(query.size() == space_->point_dim());
  if (scratch == nullptr) scratch = &t_default_scratch;
  const size_t num_points = space_->num_points();
  SearchStats local_stats;
  out->clear();

  auto finish = [&]() {
    local_stats.examined_fraction =
        num_points == 0 ? 0.0
                        : static_cast<double>(local_stats.points_examined) /
                              static_cast<double>(num_points);
    if (stats != nullptr) *stats = local_stats;
  };

  if (num_points == 0 || n == 0) {
    finish();
    return;
  }

  const uint32_t k = latent_dim_;
  const uint32_t c_dim = 2 * k;
  const float c_weight = query[c_dim];

  const auto& pair_event_idx = index_->pair_event_idx();
  const auto& pair_partner_idx = index_->pair_partner_idx();
  const auto& c_sorted = index_->c_sorted();
  const std::vector<float>& c_values = space_->c_values();
  const std::vector<float>& c_sorted_values = index_->c_sorted_values();
  const GemModel& model = space_->model();
  const size_t num_events = index_->num_events();
  const size_t num_partners = index_->num_partners();

  // Per-group aggregate components: A over the event block, B over the
  // partner block — the group's x̄ or ū' row, the coordinates every
  // point of the group shares. resize() allocates only on the first
  // query through this scratch.
  scratch->event_component.resize(num_events);
  float* event_component = scratch->event_component.data();
  for (size_t e = 0; e < num_events; ++e) {
    event_component[e] =
        Dot(query.data(), model.EventVec(index_->events()[e]), k);
  }
  scratch->partner_component.resize(num_partners);
  float* partner_component = scratch->partner_component.data();
  for (size_t u = 0; u < num_partners; ++u) {
    partner_component[u] =
        Dot(query.data() + k, model.UserVec(index_->partners()[u]), k);
  }
  auto pair_score = [&](uint32_t id, uint32_t event_idx,
                        uint32_t partner_idx) {
    return event_component[event_idx] + partner_component[partner_idx] +
           c_weight * c_values[id];
  };

  // Query-time orderings of the A and B lists (in-place introsort; no
  // scratch buffer, unlike stable_sort).
  scratch->event_order.resize(num_events);
  std::vector<uint32_t>& event_order = scratch->event_order;
  std::iota(event_order.begin(), event_order.end(), 0);
  std::sort(event_order.begin(), event_order.end(),
            [&](uint32_t a, uint32_t b) {
              return event_component[a] > event_component[b];
            });
  scratch->partner_order.resize(num_partners);
  std::vector<uint32_t>& partner_order = scratch->partner_order;
  std::iota(partner_order.begin(), partner_order.end(), 0);
  std::sort(partner_order.begin(), partner_order.end(),
            [&](uint32_t a, uint32_t b) {
              return partner_component[a] > partner_component[b];
            });

  // O(1) census via the index-built partner map: every pair is a
  // candidate except those of the excluded partner.
  const size_t want =
      std::min(n, index_->ResultsPossible(exclude_partner));
  if (want == 0) {
    finish();
    return;
  }

  TopK<uint32_t>& heap = scratch->heap;
  heap.Reset(n);
  // Generation-stamped visited set: bumping the generation invalidates
  // every mark from earlier queries without touching the array.
  if (scratch->seen_gen.size() < num_points) {
    scratch->seen_gen.assign(num_points, 0);
    scratch->generation = 0;
  }
  if (++scratch->generation == 0) {  // wrapped: hard reset
    std::fill(scratch->seen_gen.begin(), scratch->seen_gen.end(), 0);
    scratch->generation = 1;
  }
  const uint32_t generation = scratch->generation;
  uint32_t* seen = scratch->seen_gen.data();

  auto examine = [&](uint32_t id) {
    if (seen[id] == generation) return;
    seen[id] = generation;
    ++local_stats.points_examined;
    if (space_->pair(id).partner == exclude_partner) return;
    heap.Push(id, pair_score(id, pair_event_idx[id], pair_partner_idx[id]));
  };

  // Three-list TA with best-first scheduling: cursors into the A-, B-
  // and C-ordered enumerations of pairs; the unseen-pair bound is
  // A_next + B_next + C_next.
  size_t a_group = 0;      // index into event_order
  size_t a_offset = 0;     // within the group's pair list
  size_t b_group = 0;
  size_t b_offset = 0;
  size_t c_cursor = 0;

  auto a_head = [&]() {
    return a_group < event_order.size()
               ? event_component[event_order[a_group]]
               : 0.0f;
  };
  auto b_head = [&]() {
    return b_group < partner_order.size()
               ? partner_component[partner_order[b_group]]
               : 0.0f;
  };
  auto c_head = [&]() {
    return c_cursor < num_points
               ? c_weight * c_sorted_values[c_cursor]
               : 0.0f;
  };

  // -inf until the threshold break fires; stays -inf on exhaustion
  // (every pair was examined, so no unexamined pair needs a bound).
  float stop_bound = -std::numeric_limits<float>::infinity();
  while (true) {
    const float ha = a_head();
    const float hb = b_head();
    const float hc = c_head();
    if (heap.size() >= want &&
        heap.Threshold() >= ha + hb + hc) {
      stop_bound = ha + hb + hc;
      break;
    }
    if (a_group >= event_order.size() &&
        b_group >= partner_order.size() && c_cursor >= num_points) {
      break;  // everything consumed
    }
    // Best-first: advance the list with the largest head.
    if (ha >= hb && ha >= hc && a_group < event_order.size()) {
      const auto pairs = index_->EventPairs(event_order[a_group]);
      examine(pairs[a_offset]);
      ++local_stats.sorted_accesses;
      if (++a_offset >= pairs.size()) {
        a_offset = 0;
        ++a_group;
      }
    } else if (hb >= hc && b_group < partner_order.size()) {
      const auto pairs = index_->PartnerPairs(partner_order[b_group]);
      examine(pairs[b_offset]);
      ++local_stats.sorted_accesses;
      if (++b_offset >= pairs.size()) {
        b_offset = 0;
        ++b_group;
      }
    } else if (c_cursor < num_points) {
      examine(c_sorted[c_cursor]);
      ++local_stats.sorted_accesses;
      ++c_cursor;
    } else {
      // Preferred list exhausted; fall back to any remaining one.
      if (a_group < event_order.size()) {
        const auto pairs = index_->EventPairs(event_order[a_group]);
        examine(pairs[a_offset]);
        ++local_stats.sorted_accesses;
        if (++a_offset >= pairs.size()) {
          a_offset = 0;
          ++a_group;
        }
      } else if (b_group < partner_order.size()) {
        const auto pairs = index_->PartnerPairs(partner_order[b_group]);
        examine(pairs[b_offset]);
        ++local_stats.sorted_accesses;
        if (++b_offset >= pairs.size()) {
          b_offset = 0;
          ++b_group;
        }
      }
    }
  }

  // Unreturned-score bound: the stop threshold covers unexamined pairs;
  // a full heap's minimum covers examined-but-evicted pairs. (want < n
  // never fills the heap beyond what exists, so the second term stays
  // inactive exactly when nothing was evicted.)
  local_stats.unreturned_bound = stop_bound;
  if (heap.full()) {
    local_stats.unreturned_bound =
        std::max(local_stats.unreturned_bound, heap.Threshold());
  }

  const auto& entries = heap.SortDescendingInPlace();
  out->reserve(entries.size());
  for (const auto& e : entries) {
    out->push_back(SearchHit{e.score, e.id, space_->pair(e.id)});
  }
  finish();
}

}  // namespace gemrec::recommend
