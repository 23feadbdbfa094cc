#ifndef GEMREC_SERVING_MODEL_SNAPSHOT_H_
#define GEMREC_SERVING_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ebsn/types.h"
#include "embedding/embedding_store.h"
#include "recommend/batch_ta_search.h"
#include "recommend/candidate_index.h"
#include "recommend/gem_model.h"
#include "recommend/quantized_space.h"
#include "recommend/query_kinds.h"
#include "recommend/space_index.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"
#include "shard/partitioner.h"

namespace gemrec::serving {

/// Build-time knobs of a snapshot (the offline half of §IV).
struct SnapshotOptions {
  /// Pruning level forwarded to BuildCandidatePairs (0 = unpruned).
  uint32_t top_k_events_per_partner = 20;
  /// Build only this shard's partners (shard/partitioner.h) and scan
  /// only its events in group queries (`gemrec serve --shard i/N`).
  /// The default spec builds everything.
  shard::ShardSpec shard;

  bool operator==(const SnapshotOptions&) const = default;
};

class ModelSnapshot;

/// What changed since an earlier snapshot built by the same builder
/// with the same options: the user rows that may have moved. The
/// previous pool must be a prefix of the new one, longer than top_k
/// (recommend::CandidateDelta). With no `previous`, the snapshot is
/// built with no previous and `dirty_users` is not read.
struct SnapshotDelta {
  const ModelSnapshot* previous = nullptr;
  const std::vector<uint8_t>* dirty_users = nullptr;
};

/// An immutable, self-contained serving model: a deep copy of the
/// embedding store plus everything derived from it — the GemModel
/// adapter, the candidate pairs with one C = ū'ᵀx̄ each (the
/// transformed (2K+1)-dim space, whose x̄ and ū' halves are the copied
/// store's rows), the group/C-order index and the quantized codes the
/// batch walk reads. Because the store is copied at construction, the
/// caller's
/// staging store can keep absorbing OnlineUpdate fold-ins while this
/// snapshot serves; publishing the result is building a new snapshot
/// and handing it to RecommendationService::Publish.
///
/// Lifetime: snapshots are shared-ptr managed. The service's publish
/// slot holds one reference and every in-flight worker batch holds
/// another, so a retired snapshot (swapped out while queries still run
/// on it) stays alive exactly until the last draining query drops its
/// reference — epoch/refcount retirement with no reader-side blocking.
class ModelSnapshot {
 public:
  /// Copies `store` and builds the candidate space over `events` x the
  /// partners of 0..num_users-1 that `options.shard` owns (all of them
  /// by default), pruned per options. The candidate list, the index
  /// and the codes are built once, each with an optional previous:
  /// with a `delta` whose previous is set, every partner slice the
  /// change cannot reach is copied from `delta->previous`
  /// (recommend::BuildCandidateList), with its index entries and codes
  /// (SpaceIndex, QuantizedSpace); with no previous, every slice is
  /// ranked. The result is bitwise the same. The build runs on the calling
  /// thread, never on serving workers; the candidate ranking also
  /// borrows a pool of helper threads that is joined before it returns
  /// (recommend::BuildCandidateList), so no thread outlives the build.
  ModelSnapshot(const embedding::EmbeddingStore& store,
                std::vector<ebsn::EventId> events, uint32_t num_users,
                const SnapshotOptions& options,
                const SnapshotDelta* delta = nullptr);

  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  /// Publish epoch; 0 until the snapshot is published (the service
  /// stamps it inside Publish, before the swap becomes visible).
  uint64_t epoch() const { return epoch_; }

  /// FNV-1a hash of the recommendable event pool — the "filter hash"
  /// component of cache keys, so results computed for one filtered
  /// pool are never replayed for another.
  uint64_t pool_hash() const { return pool_hash_; }

  const recommend::GemModel& model() const { return model_; }
  const recommend::TransformedSpace& space() const { return *space_; }
  const recommend::SpaceIndex& index() const { return *index_; }
  const recommend::QuantizedSpace& quantized() const { return *quant_; }
  /// Exact per-query TA over the same index (offline replays and
  /// oracles; serving answers through batch_searcher()).
  const recommend::TaSearch& searcher() const { return *ta_; }
  /// Quantized batched retrieval, the serving engine; never null.
  const recommend::BatchTaSearch* batch_searcher() const {
    return batch_.get();
  }
  const std::vector<ebsn::EventId>& events() const { return events_; }
  /// This shard's slice of the event pool under OwnsEvent — the scan
  /// domain of group queries — in descending ‖x̄‖ order, ties by pool
  /// position (recommend::OrderEventsByNorm), for full and delta
  /// builds alike. Holds the events of events() when unsharded; the N
  /// slices are disjoint and their union is events(), so the shard
  /// merger reassembles the single-instance group ranking exactly.
  const std::vector<ebsn::EventId>& shard_events() const {
    return shard_events_.ids;
  }
  /// shard_events() with their norms, what recommend::GroupScan walks.
  const recommend::EventsByNorm& shard_events_by_norm() const {
    return shard_events_;
  }
  uint32_t num_users() const { return num_users_; }
  /// The options the snapshot was built with.
  const SnapshotOptions& options() const { return options_; }
  size_t num_candidate_pairs() const { return space_->num_points(); }
  const embedding::EmbeddingStore& store() const { return store_; }

  /// Fills `out` with the query point q_u of this snapshot's space.
  void QueryVector(ebsn::UserId u, std::vector<float>* out) const {
    space_->QueryVector(model_, u, out);
  }

  /// Hashes an event pool the way pool_hash() does (exposed so callers
  /// can pre-compute cache keys without a snapshot).
  static uint64_t HashEventPool(const std::vector<ebsn::EventId>& events);

 private:
  friend class RecommendationService;  // stamps epoch_ at publish

  uint64_t epoch_ = 0;
  embedding::EmbeddingStore store_;  // deep copy; owned
  recommend::GemModel model_;        // points into store_
  std::vector<ebsn::EventId> events_;
  recommend::EventsByNorm shard_events_;
  uint32_t num_users_;
  SnapshotOptions options_;
  uint64_t pool_hash_;
  std::unique_ptr<recommend::TransformedSpace> space_;
  std::unique_ptr<recommend::SpaceIndex> index_;  // shared by searchers
  std::unique_ptr<recommend::TaSearch> ta_;
  std::unique_ptr<recommend::QuantizedSpace> quant_;
  std::unique_ptr<recommend::BatchTaSearch> batch_;
};

}  // namespace gemrec::serving

#endif  // GEMREC_SERVING_MODEL_SNAPSHOT_H_
