#ifndef GEMREC_RECOMMEND_BATCH_TA_SEARCH_H_
#define GEMREC_RECOMMEND_BATCH_TA_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/top_k.h"
#include "ebsn/types.h"
#include "recommend/quantized_space.h"
#include "recommend/space_index.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {

/// One query of a batch.
struct BatchQuery {
  /// (2K+1)-dim nonnegative fp32 query, TransformedSpace layout.
  const float* query = nullptr;
  size_t n = 0;
  ebsn::UserId exclude_partner = 0;
};

/// Aggregate instrumentation of one SearchBatch call.
struct BatchSearchStats {
  /// Distinct (query, pair) examinations across the batch.
  size_t points_examined = 0;
  /// Total sorted-list positions consumed across the batch.
  size_t sorted_accesses = 0;
  /// Pairs re-scored in exact fp32 across the batch.
  size_t reranked = 0;
  /// points_examined / (num_points * batch size).
  double examined_fraction = 0.0;
  /// Code blocks the list orders expanded (rows call over the block's
  /// rows), summed over both lists and the batch.
  size_t blocks_expanded = 0;
  /// Time in the quantized stage: query quantization, the block
  /// bounds, the block expansions the walk reaches, and the TA walk.
  uint64_t quantize_scan_us = 0;
  /// Time re-scoring survivors in exact fp32.
  uint64_t rerank_us = 0;
};

/// One query's descending (dot << 32 | group) order over one CodeBlocks
/// list, materialized only as far as it is read. Reset bounds every
/// block with one rows call and heaps the blocks by (bound << 32 |
/// block). At(i) emits the top expanded key only when no unexpanded
/// block's bound is >= its dot; while one is, the block with the
/// largest bound is expanded (one rows call over its rows) into the
/// heap of keys. A bound is >= every dot in its block, so a key is
/// emitted only after every key above it is in the heap, and the
/// emitted sequence is exactly the descending order of all keys. The
/// >= (not >) matters for ties: a block whose bound equals the top dot
/// may hold the same dot with a larger group id, whose key comes first.
/// One mechanism serves both lists.
class BlockOrder {
 public:
  /// The list-order key. Dots are nonnegative, and bias + scale *
  /// float(dot) with scale >= 0 is monotone in the dot, so descending-
  /// key order is descending-component order, ties broken by the
  /// larger group id.
  static uint64_t Key(int32_t dot, size_t group) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(dot)) << 32) |
           group;
  }
  static int32_t KeyDot(uint64_t key) {
    return static_cast<int32_t>(key >> 32);
  }
  static uint32_t KeyGroup(uint64_t key) {
    return static_cast<uint32_t>(key);
  }

  /// Starts the order of `query` over `list`; both must stay valid
  /// while the order is read.
  void Reset(const CodeBlocks* list, QueryCodes query);
  /// Key of the i-th best group, i < list->num_groups(). Reads must not
  /// go backwards (re-reading the last position is fine); the TA walk
  /// only moves forward.
  uint64_t At(size_t i) {
    while (emitted_ <= i) Emit();
    return last_;
  }
  /// The dot of group g's row against this order's query: one one-row
  /// call, the value group g's key carries.
  int32_t GroupDot(size_t g) const { return list_->GroupDot(query_, g); }
  /// Blocks expanded since Reset.
  size_t blocks_expanded() const { return blocks_expanded_; }

 private:
  /// Pops the next key into last_.
  void Emit();

  const CodeBlocks* list_ = nullptr;
  QueryCodes query_ = nullptr;
  std::vector<int32_t> dots_;    // block bounds, then one block's dots
  std::vector<uint64_t> blocks_;  // max-heap of unexpanded blocks
  std::vector<uint64_t> keys_;    // max-heap of expanded keys
  size_t emitted_ = 0;
  uint64_t last_ = 0;
  size_t blocks_expanded_ = 0;
};

/// Multi-query TA over the quantized space, with an exact fp32 re-rank.
///
/// Given a batch of queries, this runs the same aggregate-list TA as
/// TaSearch but restructured around the batch:
///
///   1. Per-query list orders: every query is quantized once, and each
///      of its two group lists (events, partners) gets a BlockOrder.
///      One rows call bounds every 64-row code block; the walk then
///      computes row dots only for the blocks whose bound can reach
///      the keys it reads. TA consumes a short prefix of each list
///      before its threshold fires, so a query expands few blocks.
///   2. Round-robin TA walk: each live query advances its best list a
///      fixed quantum, then yields; queries retire as they stop. An
///      examined pair's two components come from one-row DotQ16
///      calls against its event and partner rows, as bias + scale *
///      float(dot), bitwise what the list keys encode. The visited set
///      is one generation-stamped uint64 bitmask shared by the whole
///      chunk (bit q = "query q examined this pair"), so batch-64 costs
///      the same memory as a single query.
///   3. Exact re-rank: every pair a query examined is re-scored with
///      the full-width fp32 Dot over its point, assembled from the
///      store rows and C (TransformedSpace::CopyPoint), and the top-n
///      of those exact scores is returned.
///
/// Exactness: approximate scores are within epsilon of exact ones
/// (QuantizedSpace::QuantizedQuery), so a query only stops once its
/// n-th best approximate score clears the list-head bound by 2*epsilon
/// — at that point no unexamined pair can beat the true n-th best, and
/// the exact re-rank over the examined set returns precisely the
/// brute-force top-n (modulo ties). Batches of more than 64 queries are
/// processed in chunks of 64.
///
/// Steady-state SearchBatch calls through a warm Workspace perform no
/// heap allocation (pinned by tests/recommend/ta_alloc_test).
class BatchTaSearch {
 public:
  /// Reusable cross-batch workspace; grows on first use and keeps its
  /// storage. Not safe for concurrent use.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class BatchTaSearch;
    struct Cursor {
      size_t a_group, a_offset, b_group, b_offset, c_cursor;
      size_t want;
      size_t examined, sorted_accesses;  // this query's own counts
      float epsilon2;  // 2 * epsilon, the threshold widening
      float c_weight;
      /// True-score bound on unexamined pairs, captured when the
      /// widened threshold fires (-inf if the walk ran to exhaustion).
      float stop_bound;
      bool done;
    };
    std::vector<int16_t> event_codes, partner_codes;  // query codes
    std::vector<QuantizedSpace::QuantizedQuery> qq;
    std::vector<BlockOrder> event_orders, partner_orders;  // [query]
    std::vector<uint32_t> seen_gen;
    std::vector<uint64_t> seen_bits;
    uint32_t generation = 0;
    std::vector<Cursor> cursors;
    std::vector<std::vector<uint32_t>> examined;
    std::vector<TopK<uint32_t>> heaps;
    std::vector<float> point;  // the re-rank's assembled point
  };

  /// `quant` (and the SpaceIndex it wraps) must outlive the searcher.
  explicit BatchTaSearch(const QuantizedSpace* quant);

  const SpaceIndex& index() const { return *index_; }

  /// Runs `count` queries; fills results[i] with queries[i]'s exact
  /// top-n (descending score). Result vectors are cleared, not shrunk,
  /// so warm callers stay allocation-free. `stats` may be null;
  /// `per_query_stats`, when non-null, must point at `count` entries
  /// and receives each query's own examine counts.
  void SearchBatch(const BatchQuery* queries, size_t count,
                   std::vector<SearchHit>* results,
                   BatchSearchStats* stats, Workspace* workspace,
                   SearchStats* per_query_stats = nullptr) const;

 private:
  void SearchChunk(const BatchQuery* queries, size_t count,
                   std::vector<SearchHit>* results,
                   BatchSearchStats* stats, Workspace* ws,
                   SearchStats* per_query_stats) const;

  const QuantizedSpace* quant_;
  const SpaceIndex* index_;
  const TransformedSpace* space_;
  uint32_t latent_dim_;
};

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_BATCH_TA_SEARCH_H_
