#include "recommend/batch_ta_search.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/vec_math.h"

namespace gemrec::recommend {
namespace {

/// Chunk width: one bit per query in the shared visited mask.
constexpr size_t kMaxChunk = 64;
/// Sorted-list steps a live query takes before yielding to the next.
constexpr size_t kWalkQuantum = 64;

}  // namespace

void BlockOrder::Reset(const CodeBlocks* list, QueryCodes query) {
  list_ = list;
  query_ = query;
  emitted_ = 0;
  blocks_expanded_ = 0;
  const size_t num_blocks = list->num_blocks();
  dots_.resize(std::max(num_blocks, CodeBlocks::kBlockRows));
  list->BlockBounds(query, dots_.data());
  blocks_.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) blocks_[b] = Key(dots_[b], b);
  std::make_heap(blocks_.begin(), blocks_.end());
  keys_.clear();
}

void BlockOrder::Emit() {
  // Expand while some unexpanded block could hold a key >= the top
  // one: a bound equal to the top dot may hide the same dot with a
  // larger group id.
  while (!blocks_.empty() &&
         (keys_.empty() || KeyDot(blocks_.front()) >= KeyDot(keys_.front()))) {
    std::pop_heap(blocks_.begin(), blocks_.end());
    const size_t block = KeyGroup(blocks_.back());
    blocks_.pop_back();
    const size_t rows = list_->BlockDots(query_, block, dots_.data());
    const uint32_t* groups =
        list_->order().data() + block * CodeBlocks::kBlockRows;
    for (size_t r = 0; r < rows; ++r) {
      keys_.push_back(Key(dots_[r], groups[r]));
      std::push_heap(keys_.begin(), keys_.end());
    }
    ++blocks_expanded_;
  }
  GEMREC_DCHECK(!keys_.empty());  // At() past the list's end
  std::pop_heap(keys_.begin(), keys_.end());
  last_ = keys_.back();
  keys_.pop_back();
  ++emitted_;
}

BatchTaSearch::BatchTaSearch(const QuantizedSpace* quant)
    : quant_(quant),
      index_(&quant->index()),
      space_(&quant->index().space()),
      latent_dim_(quant->latent_dim()) {
  GEMREC_CHECK(quant != nullptr);
}

void BatchTaSearch::SearchBatch(const BatchQuery* queries, size_t count,
                                std::vector<SearchHit>* results,
                                BatchSearchStats* stats,
                                Workspace* workspace,
                                SearchStats* per_query_stats) const {
  GEMREC_CHECK(workspace != nullptr);
  BatchSearchStats local;
  for (size_t start = 0; start < count; start += kMaxChunk) {
    const size_t chunk = std::min(kMaxChunk, count - start);
    SearchChunk(queries + start, chunk, results + start, &local, workspace,
                per_query_stats ? per_query_stats + start : nullptr);
  }
  const size_t num_points = space_->num_points();
  local.examined_fraction =
      (num_points == 0 || count == 0)
          ? 0.0
          : static_cast<double>(local.points_examined) /
                (static_cast<double>(num_points) *
                 static_cast<double>(count));
  if (stats != nullptr) *stats = local;
}

void BatchTaSearch::SearchChunk(const BatchQuery* queries, size_t count,
                                std::vector<SearchHit>* results,
                                BatchSearchStats* stats, Workspace* ws,
                                SearchStats* per_query_stats) const {
  GEMREC_DCHECK(count <= kMaxChunk);
  Stopwatch total_timer;
  uint64_t rerank_us = 0;

  const size_t num_points = space_->num_points();
  const uint32_t k = latent_dim_;
  const size_t num_events = index_->num_events();
  const size_t num_partners = index_->num_partners();
  const uint32_t* pair_event_idx = index_->pair_event_idx().data();
  const uint32_t* pair_partner_idx = index_->pair_partner_idx().data();
  const uint32_t* c_sorted = index_->c_sorted().data();
  const float* c_values = quant_->c_values().data();
  const float* c_sorted_values = index_->c_sorted_values().data();

  for (size_t q = 0; q < count; ++q) results[q].clear();
  if (per_query_stats != nullptr) {
    for (size_t q = 0; q < count; ++q) per_query_stats[q] = SearchStats{};
  }
  if (num_points == 0 || count == 0) {
    stats->quantize_scan_us +=
        static_cast<uint64_t>(total_timer.ElapsedMicros());
    return;
  }

  // --- Stage 1: quantize queries and bound their lists' blocks. ---
  ws->event_codes.resize(kMaxChunk * k);
  ws->partner_codes.resize(kMaxChunk * k);
  ws->qq.resize(kMaxChunk);
  ws->event_orders.resize(kMaxChunk);
  ws->partner_orders.resize(kMaxChunk);
  for (size_t q = 0; q < count; ++q) {
    int16_t* event_codes = ws->event_codes.data() + q * k;
    int16_t* partner_codes = ws->partner_codes.data() + q * k;
    ws->qq[q] =
        quant_->QuantizeQuery(queries[q].query, event_codes, partner_codes);
    ws->event_orders[q].Reset(&quant_->event_blocks(), event_codes);
    ws->partner_orders[q].Reset(&quant_->partner_blocks(), partner_codes);
  }

  // --- Stage 2: round-robin widened-threshold TA walk. ---
  if (ws->seen_gen.size() < num_points) {
    ws->seen_gen.assign(num_points, 0);
    ws->seen_bits.assign(num_points, 0);
    ws->generation = 0;
  }
  if (++ws->generation == 0) {
    std::fill(ws->seen_gen.begin(), ws->seen_gen.end(), 0u);
    ws->generation = 1;
  }
  const uint32_t generation = ws->generation;
  uint32_t* seen_gen = ws->seen_gen.data();
  uint64_t* seen_bits = ws->seen_bits.data();

  ws->cursors.resize(kMaxChunk);
  ws->point.resize(space_->point_dim());
  if (ws->examined.size() < kMaxChunk) ws->examined.resize(kMaxChunk);
  if (ws->heaps.size() < kMaxChunk) {
    ws->heaps.resize(kMaxChunk, TopK<uint32_t>(1));
  }

  size_t active = 0;
  for (size_t q = 0; q < count; ++q) {
    Workspace::Cursor& cur = ws->cursors[q];
    cur = Workspace::Cursor{};
    cur.want = std::min(queries[q].n,
                        index_->ResultsPossible(queries[q].exclude_partner));
    cur.epsilon2 = 2.0f * ws->qq[q].epsilon;
    cur.c_weight = ws->qq[q].c_weight;
    cur.stop_bound = -std::numeric_limits<float>::infinity();
    cur.done = queries[q].n == 0 || cur.want == 0;
    ws->examined[q].clear();
    if (!cur.done) {
      ws->heaps[q].Reset(queries[q].n);
      ++active;
    }
  }

  size_t examined_total = 0;
  size_t sorted_accesses = 0;
  while (active > 0) {
    for (size_t q = 0; q < count; ++q) {
      Workspace::Cursor& cur = ws->cursors[q];
      if (cur.done) continue;
      const QuantizedSpace::QuantizedQuery& qq = ws->qq[q];
      // The component of a dot, bitwise what a stored fp32 component
      // array would hold.
      const auto event_comp = [&qq](int32_t dot) {
        return qq.event_bias + qq.event_scale * static_cast<float>(dot);
      };
      const auto partner_comp = [&qq](int32_t dot) {
        return qq.partner_bias + qq.partner_scale * static_cast<float>(dot);
      };
      BlockOrder& event_order = ws->event_orders[q];
      BlockOrder& partner_order = ws->partner_orders[q];
      TopK<uint32_t>& heap = ws->heaps[q];
      std::vector<uint32_t>& examined = ws->examined[q];
      const ebsn::UserId exclude = queries[q].exclude_partner;
      const uint64_t bit = 1ull << q;

      auto examine = [&](uint32_t id) {
        if (seen_gen[id] != generation) {
          seen_gen[id] = generation;
          seen_bits[id] = 0;
        }
        if (seen_bits[id] & bit) return;
        seen_bits[id] |= bit;
        ++examined_total;
        ++cur.examined;
        if (space_->pair(id).partner == exclude) return;
        examined.push_back(id);
        heap.Push(id,
                  event_comp(event_order.GroupDot(pair_event_idx[id])) +
                      partner_comp(
                          partner_order.GroupDot(pair_partner_idx[id])) +
                      cur.c_weight * c_values[id]);
      };

      for (size_t step = 0; step < kWalkQuantum; ++step) {
        const bool a_live = cur.a_group < num_events;
        const bool b_live = cur.b_group < num_partners;
        const bool c_live = cur.c_cursor < num_points;
        const uint64_t a_key = a_live ? event_order.At(cur.a_group) : 0;
        const uint64_t b_key = b_live ? partner_order.At(cur.b_group) : 0;
        const float ha =
            a_live ? event_comp(BlockOrder::KeyDot(a_key)) : 0.0f;
        const float hb =
            b_live ? partner_comp(BlockOrder::KeyDot(b_key)) : 0.0f;
        const float hc =
            c_live ? cur.c_weight * c_sorted_values[cur.c_cursor] : 0.0f;
        // Widened stop: only when the n-th best *approximate* score
        // clears the bound by 2*epsilon is the true top-n guaranteed
        // to be inside the examined set (DESIGN.md section 13).
        if (heap.size() >= cur.want &&
            heap.Threshold() >= ha + hb + hc + cur.epsilon2) {
          // An unexamined pair's TRUE score is at most its approximate
          // score (<= ha+hb+hc, list monotonicity) plus one epsilon.
          cur.stop_bound = ha + hb + hc + 0.5f * cur.epsilon2;
          cur.done = true;
          break;
        }
        if (!a_live && !b_live && !c_live) {
          cur.done = true;
          break;
        }
        ++sorted_accesses;
        ++cur.sorted_accesses;
        if (a_live && ha >= hb && ha >= hc) {
          const auto pairs = index_->EventPairs(BlockOrder::KeyGroup(a_key));
          examine(pairs[cur.a_offset]);
          if (++cur.a_offset >= pairs.size()) {
            cur.a_offset = 0;
            ++cur.a_group;
          }
        } else if (b_live && hb >= hc) {
          const auto pairs = index_->PartnerPairs(BlockOrder::KeyGroup(b_key));
          examine(pairs[cur.b_offset]);
          if (++cur.b_offset >= pairs.size()) {
            cur.b_offset = 0;
            ++cur.b_group;
          }
        } else if (c_live) {
          examine(c_sorted[cur.c_cursor]);
          ++cur.c_cursor;
        } else if (a_live) {
          const auto pairs = index_->EventPairs(BlockOrder::KeyGroup(a_key));
          examine(pairs[cur.a_offset]);
          if (++cur.a_offset >= pairs.size()) {
            cur.a_offset = 0;
            ++cur.a_group;
          }
        } else {
          const auto pairs = index_->PartnerPairs(BlockOrder::KeyGroup(b_key));
          examine(pairs[cur.b_offset]);
          if (++cur.b_offset >= pairs.size()) {
            cur.b_offset = 0;
            ++cur.b_group;
          }
        }
      }

      if (cur.done) {
        --active;
        stats->blocks_expanded += event_order.blocks_expanded() +
                                  partner_order.blocks_expanded();
        // --- Stage 3: exact fp32 re-rank of this query's survivors.
        // The approximate heap has served its purpose (the stopping
        // rule); reuse it for the exact scores.
        Stopwatch rr;
        heap.Reset(std::max<size_t>(queries[q].n, 1));
        const float* query = queries[q].query;
        const size_t point_dim = space_->point_dim();
        float* point = ws->point.data();
        // The store rows are usually cold here: start every examined
        // pair's loads before the first dot waits on one.
        for (uint32_t id : examined) space_->PrefetchPoint(id);
        for (uint32_t id : examined) {
          space_->CopyPoint(id, point);
          heap.Push(id, Dot(query, point, point_dim));
        }
        const auto& entries = heap.SortDescendingInPlace();
        std::vector<SearchHit>& out = results[q];
        out.reserve(entries.size());
        for (const auto& e : entries) {
          out.push_back(SearchHit{e.score, e.id, space_->pair(e.id)});
        }
        stats->reranked += examined.size();
        rerank_us += static_cast<uint64_t>(rr.ElapsedMicros());
        if (per_query_stats != nullptr) {
          SearchStats& qs = per_query_stats[q];
          qs.points_examined = cur.examined;
          qs.sorted_accesses = cur.sorted_accesses;
          qs.examined_fraction =
              static_cast<double>(cur.examined) /
              static_cast<double>(num_points);
          // Unreturned-score bound over TRUE scores: the widened-stop
          // threshold covers unexamined pairs; when the exact re-rank
          // filled all n slots, its n-th score covers examined pairs
          // that were evicted.
          qs.unreturned_bound = cur.stop_bound;
          if (!entries.empty() && entries.size() >= queries[q].n) {
            qs.unreturned_bound =
                std::max(qs.unreturned_bound, entries.back().score);
          }
        }
      }
    }
  }

  stats->points_examined += examined_total;
  stats->sorted_accesses += sorted_accesses;
  stats->rerank_us += rerank_us;
  const uint64_t total_us =
      static_cast<uint64_t>(total_timer.ElapsedMicros());
  stats->quantize_scan_us += total_us > rerank_us ? total_us - rerank_us : 0;
}

}  // namespace gemrec::recommend
