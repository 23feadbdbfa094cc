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
  /// Time in the quantized stage: query quantization, batched
  /// component dot products, per-query list heads and refills, and
  /// the TA walk.
  uint64_t quantize_scan_us = 0;
  /// Time re-scoring survivors in exact fp32.
  uint64_t rerank_us = 0;
};

/// Multi-query TA over the quantized space, with an exact fp32 re-rank.
///
/// Given a batch of queries, this runs the same aggregate-list TA as
/// TaSearch but restructured around the batch:
///
///   1. Component stage: every query is quantized once, then the
///      compact code matrices are walked *once* in tiles of rows — tile
///      outer, queries inner — so each event/partner row is read from
///      cache for the whole batch instead of once per query. Each
///      (query, tile) pair is one DotQ8Rows/DotQ16Rows call, which
///      writes the integer dots of the whole tile; the stage keeps only
///      those int32 dots plus each list's max. A component is
///      bias + scale * float(dot), computed where the walk reads it.
///   2. Per-query list orders, built in linear passes: the A and B
///      group lists are NOT fully sorted. Each list histograms its dots
///      into 256 buckets of its top 8 significant bits; the walk reads
///      a head of at least 64 groups, collected from the top buckets in
///      one pass and sorted descending by packed (dot << 32 | group)
///      keys. When the walk reaches the end of the head, the next
///      bucket range, holding at least twice as many groups, is
///      collected and sorted the same way. Buckets partition the dots
///      by value, so the concatenated ranges are the full descending
///      key order; TA consumes only a short prefix of it before its
///      threshold fires.
///   3. Round-robin TA walk: each live query advances its best list a
///      fixed quantum, then yields; queries retire as they stop. The
///      visited set is one generation-stamped uint64 bitmask shared by
///      the whole chunk (bit q = "query q examined this pair"), so
///      batch-64 costs the same memory as a single query.
///   4. Exact re-rank: every pair a query examined is re-scored with
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
    /// One query's descending (dot << 32 | group) order over one group
    /// list, materialized one bucket range at a time (step 2 above).
    class ListOrder {
     public:
      /// Histograms `dots` (one per group, each in [0, max_dot]); they
      /// must stay valid while the order is read.
      void Reset(const int32_t* dots, size_t num_groups, int32_t max_dot);
      /// Key of the i-th best group, i < num_groups. Positions before
      /// the current range are gone, so reads must not go backwards
      /// past it; the TA walk only moves forward.
      uint64_t At(size_t i) {
        while (i >= begin_ + range_.size()) Refill();
        return range_[i - begin_];
      }

     private:
      static constexpr uint32_t kBuckets = 256;
      /// Collects and sorts the next bucket range after the current one.
      void Refill();

      const int32_t* dots_ = nullptr;
      size_t num_groups_ = 0;
      uint32_t shift_ = 0;
      /// Buckets [next_bucket_, kBuckets) are collected already.
      uint32_t next_bucket_ = kBuckets;
      /// List position of range_[0].
      size_t begin_ = 0;
      std::vector<uint64_t> range_;
      uint32_t histogram_[kBuckets] = {};
    };
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
    std::vector<uint8_t> event_q8, partner_q8;     // query codes, int8 mode
    std::vector<int16_t> event_q16, partner_q16;   // query codes, int16 mode
    std::vector<QuantizedSpace::QuantizedQuery> qq;
    std::vector<int32_t> event_dots, partner_dots;  // [query][group]
    std::vector<int32_t> event_max, partner_max;    // [query]
    std::vector<ListOrder> event_orders, partner_orders;  // [query]
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
