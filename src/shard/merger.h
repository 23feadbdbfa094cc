#ifndef GEMREC_SHARD_MERGER_H_
#define GEMREC_SHARD_MERGER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "recommend/recommender.h"
#include "serving/query_backend.h"

namespace gemrec::shard {

/// One shard's contribution to a scatter-gather query.
struct ShardAnswer {
  uint32_t shard = 0;
  /// A decoded kQueryResponse arrived before the deadline. False for
  /// evicted, dead, deadline-missed and typed-error shards.
  bool ok = false;
  /// kBadRequest or kOverloaded when the shard answered that typed
  /// error; kOk otherwise.
  serving::ResponseCode code = serving::ResponseCode::kOk;
  /// Top-n of the shard's slice, descending score.
  std::vector<recommend::Recommendation> items;
  /// The shard's TA unreturned-score bound (QueryResponse::ta_bound):
  /// every pair of its slice NOT in `items` scores at most this;
  /// -inf = nothing was left out.
  float ta_bound = std::numeric_limits<float>::infinity();
  uint64_t epoch = 0;
};

/// Outcome of merging N shard answers into one top-n.
struct MergeResult {
  /// Global top-n over the replying shards, descending score; ties
  /// broken deterministically by (event, partner) ascending.
  std::vector<recommend::Recommendation> items;
  /// kBadRequest when any shard answered kBadRequest (the request
  /// itself is invalid), else kOverloaded when any shard answered
  /// kOverloaded, else kOk. Every code but kOk carries no items.
  serving::ResponseCode code = serving::ResponseCode::kOk;
  /// kOk merges only: at least one shard's slice is missing (its
  /// ShardAnswer has ok == false).
  bool partial = false;
  /// The threshold-merge completeness proof held: every shard replied
  /// and the merged k-th score dominates every shard's unreturned
  /// bound — so `items` provably equals the unsharded top-n (modulo
  /// score ties).
  bool certified = false;
  /// Coordinator-level unreturned bound: a sound upper bound on every
  /// candidate pair (across all slices) not in `items`. +inf when any
  /// slice is missing or the merge is a typed refusal.
  float ta_bound = std::numeric_limits<float>::infinity();
  /// max over replying shards (all shards serve the same artifact
  /// generation, so this is the freshest epoch observed).
  uint64_t epoch = 0;
};

/// Merges per-shard top-k lists, carrying each shard's returned TA
/// threshold, into the global top-n.
///
/// Completeness argument (DESIGN.md section 16): the shards' slices
/// partition the candidate space, so any pair absent from the merge is
/// either (a) unreturned by its owning shard — bounded above by that
/// shard's ta_bound — or (b) returned but ranked below the merged
/// k-th score. When every shard replied, merged-kth >= max_i ta_bound_i
/// therefore proves no absent pair can displace a merged one. The
/// inequality in fact always holds for full replies (each shard's
/// bound is at most its own n-th returned score, and the merged k-th
/// is at least any dropped item's score), so MergeTopK asserts it as a
/// soundness check; `certified` reports whether the proof applied.
MergeResult MergeTopK(const std::vector<ShardAnswer>& answers, size_t n);

}  // namespace gemrec::shard

#endif  // GEMREC_SHARD_MERGER_H_
