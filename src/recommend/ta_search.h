#ifndef GEMREC_RECOMMEND_TA_SEARCH_H_
#define GEMREC_RECOMMEND_TA_SEARCH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/top_k.h"
#include "ebsn/types.h"
#include "recommend/space_index.h"
#include "recommend/space_transform.h"

namespace gemrec::recommend {

/// One retrieved event-partner pair.
struct SearchHit {
  float score = 0.0f;
  uint32_t point_index = 0;
  CandidatePair pair;
};

/// Instrumentation of a top-n query.
struct SearchStats {
  /// Distinct points fully scored (random accesses).
  size_t points_examined = 0;
  /// Total sorted-list positions consumed.
  size_t sorted_accesses = 0;
  /// points_examined / num_points.
  double examined_fraction = 0.0;
  /// Sound upper bound on the score of every candidate pair NOT in the
  /// returned list: max(TA stopping threshold at the break, and — when
  /// the heap filled to n — the n-th returned score, which bounds pairs
  /// that were examined but dropped). -inf when the search ran the
  /// space to exhaustion with a non-full heap (nothing was left out).
  /// A sharded coordinator merges per-shard top-k lists and certifies
  /// completeness when the merged k-th score >= every shard's bound.
  float unreturned_bound = -std::numeric_limits<float>::infinity();
};

/// Fagin's Threshold Algorithm over the transformed event-partner
/// space (§IV: "the TA-based algorithm has the nice property of
/// returning top-n recommendations by examining the minimum number of
/// event-partner pairs"), in the aggregate-list form the paper's cited
/// LCARS retrieval [Yin et al., KDD'13] uses.
///
/// For a query q_u = (ū, ū, 1), a pair point p_{xu'} = (x̄, ū', ū'ᵀx̄)
/// scores q·p = A(x) + B(u') + C(x, u') with three monotone components
///   A(x)  = ūᵀx̄        (depends on the event only),
///   B(u') = ūᵀū'        (depends on the partner only),
///   C     = ū'ᵀx̄        (computed offline, one fp32 per pair).
/// TA runs over three sorted lists — events by A (query time), partners
/// by B (query time), pairs by C (precomputed) — with the standard
/// stopping threshold A_next + B_next + C_next. This is exact: every
/// unseen pair is bounded above by the threshold. The aggregate form
/// prunes where a coordinate-per-list TA cannot: each event coordinate
/// value repeats once per partner, so per-coordinate thresholds decay
/// ~|U| times slower than the aggregate ones.
///
/// Correctness requires nonnegative query coordinates, which the
/// ReLU-projected embeddings (plus the constant 1) guarantee.
///
/// Performance contract: everything query-independent — pair→group
/// inverse maps, the C-sorted order, the partner census — is built once
/// in the constructor. Per-query state lives in a reusable Scratch, so
/// a steady-state SearchInto call performs no heap allocation.
class TaSearch {
 public:
  /// Reusable per-query workspace. A default-constructed Scratch grows
  /// to the searcher's size on the first query and keeps its storage,
  /// so subsequent queries through it allocate nothing. A Scratch may
  /// be shared across TaSearch instances (it re-grows as needed) but
  /// must not be used concurrently.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class TaSearch;
    std::vector<float> event_component;
    std::vector<float> partner_component;
    std::vector<uint32_t> event_order;
    std::vector<uint32_t> partner_order;
    /// seen_gen[i] == generation marks pair i as examined this query;
    /// bumping the generation clears the whole bitmap in O(1).
    std::vector<uint32_t> seen_gen;
    uint32_t generation = 0;
    TopK<uint32_t> heap{1};
  };

  /// `space` must outlive the searcher. Preprocessing builds a private
  /// SpaceIndex: groups pairs by event and by partner, sorts pairs by
  /// C, and builds the pair→group inverse maps (O(n log n)).
  explicit TaSearch(const TransformedSpace* space);

  /// Shares a prebuilt index instead of building one (ModelSnapshot
  /// builds the index once for the exact and quantized searchers).
  /// `index` must outlive the searcher.
  explicit TaSearch(const SpaceIndex* index);

  /// The query-independent space structure this searcher walks.
  const SpaceIndex& index() const { return *index_; }

  /// Returns the top-n pairs by q·p, excluding pairs whose partner is
  /// `exclude_partner` (a user cannot be her own partner). Exact: the
  /// result equals brute force up to ties. Convenience wrapper over
  /// SearchInto using a thread-local Scratch.
  std::vector<SearchHit> Search(const std::vector<float>& query, size_t n,
                                ebsn::UserId exclude_partner,
                                SearchStats* stats = nullptr) const;

  /// Allocation-free form: clears and fills `*out` (capacity is kept
  /// across calls). `scratch == nullptr` uses a thread-local Scratch.
  /// In steady state (warm scratch, warm out capacity) this performs
  /// zero heap allocations — pinned by tests/recommend/ta_alloc_test.
  void SearchInto(const std::vector<float>& query, size_t n,
                  ebsn::UserId exclude_partner,
                  std::vector<SearchHit>* out,
                  SearchStats* stats = nullptr,
                  Scratch* scratch = nullptr) const;

 private:
  /// Set only by the convenience constructor; index_ always points at
  /// the structure in use (owned or shared).
  std::unique_ptr<SpaceIndex> owned_index_;
  const SpaceIndex* index_;
  const TransformedSpace* space_;
  uint32_t latent_dim_;  // K (point_dim == 2K + 1)
};

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_TA_SEARCH_H_
