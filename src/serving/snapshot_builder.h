#ifndef GEMREC_SERVING_SNAPSHOT_BUILDER_H_
#define GEMREC_SERVING_SNAPSHOT_BUILDER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "ebsn/types.h"
#include "embedding/embedding_store.h"
#include "embedding/online_update.h"
#include "serving/model_snapshot.h"

namespace gemrec::serving {

/// Staging area for the online reload loop: holds a mutable copy of
/// the embedding store, absorbs OnlineUpdate fold-ins (cold events,
/// cold users, attendance nudges), and mints immutable ModelSnapshots
/// to hand to RecommendationService::Publish.
///
/// The staging store is never the one being served — a build deep-
/// copies it into the snapshot — so fold-ins between builds are
/// invisible to queries until the next Publish, and a half-applied
/// update can never leak into serving.
///
/// Publishing cost follows the change. The mutating wrappers below are
/// the only way to change the staging state, and they record what
/// changed: users whose row moved, events appended to the pool, or
/// "everything" (a store reset, a re-fold of an event already in the
/// pool, a pool edit that is not an append). BuildNext reuses the last
/// snapshot it built for every partner that change cannot reach
/// (recommend::BuildCandidateList); Build always builds with no
/// previous. Both run the one snapshot build (ModelSnapshot) and give
/// bitwise the same snapshot.
///
/// Not thread-safe: one updater thread owns the builder (the service
/// handles concurrency on the query side).
class SnapshotBuilder {
 public:
  /// Copies `initial` as the staging store. `events` is the
  /// recommendable pool snapshots are built over (FoldInEvent appends
  /// fresh events; set_event_pool replaces it).
  SnapshotBuilder(const embedding::EmbeddingStore& initial,
                  std::vector<ebsn::EventId> events, uint32_t num_users,
                  const SnapshotOptions& options);

  /// Fold-in wrappers over embedding/online_update.h, applied to the
  /// staging store only. Each marks what it may change before it runs.
  /// FoldInEvent also appends a newly folded event to the pool, so it
  /// is recommendable from the next build on.
  Status FoldInEvent(ebsn::EventId event,
                     const embedding::NewEventSignals& signals,
                     const embedding::OnlineUpdateOptions& options);
  Status FoldInUser(ebsn::UserId user,
                    const embedding::NewUserSignals& signals,
                    const embedding::OnlineUpdateOptions& options) {
    MarkUserDirty(user);
    return embedding::FoldInColdUser(&staging_, user, signals, options);
  }
  Status RecordAttendance(ebsn::UserId user, ebsn::EventId event,
                          const embedding::OnlineUpdateOptions& options) {
    MarkUserDirty(user);
    return embedding::UpdateUserWithAttendance(&staging_, user, event,
                                               options);
  }

  /// Replaces the event pool of future builds (e.g. a recovered
  /// checkpoint's). BuildNext compares it with the pool of its last
  /// build: an append keeps the reuse.
  void set_event_pool(std::vector<ebsn::EventId> events) {
    events_ = std::move(events);
  }
  const std::vector<ebsn::EventId>& event_pool() const { return events_; }
  uint32_t num_users() const { return num_users_; }

  /// Replaces the staging store wholesale — the reload path: a freshly
  /// trained artifact loaded from disk becomes the base for the next
  /// Build. Pending fold-ins applied since the previous reset are
  /// discarded with the old store (they are baked into any snapshot
  /// already built, never lost from serving).
  void ResetStagingStore(embedding::EmbeddingStore store) {
    staging_ = std::move(store);
    reuse_blocked_ = true;
  }

  /// Read-only view of the staging store; changes go through the
  /// wrappers above, which record them.
  const embedding::EmbeddingStore* staging_store() const {
    return &staging_;
  }

  /// Builds an immutable snapshot of the current staging state with no
  /// previous (the candidate build, the space, its index and codes).
  /// Leaves the recorded changes in place for BuildNext.
  std::shared_ptr<ModelSnapshot> Build() const;

  /// Builds the same snapshot as Build, reusing the previous BuildNext
  /// result for every partner the changes since then cannot reach:
  /// its pairs, C order entries and partner codes. The cost is
  /// O(changed partners · |pool|) plus a merge of the C order and
  /// linear passes over the pair and event arrays. The first call, and
  /// any call after a change that counts as "everything", or with
  /// top_k == 0 or a previous pool of at most top_k events, builds with
  /// no previous, as Build does. Run it on the updater thread, then
  /// Publish the result.
  std::shared_ptr<ModelSnapshot> BuildNext();

  /// Takes `served` as the base of the next BuildNext, in place of a
  /// publish, when it was built from exactly the current staging
  /// state: bitwise the same store rows, the same pool, user count and
  /// options. It is then the snapshot Build would return now. Returns
  /// whether it did; otherwise nothing changes.
  bool AdoptIfCurrent(std::shared_ptr<const ModelSnapshot> served);

 private:
  void MarkUserDirty(ebsn::UserId user) {
    if (user < dirty_users_.size()) dirty_users_[user] = 1;
  }
  /// Whether BuildNext may reuse last_ for clean partners.
  bool CanReuseLast() const;

  embedding::EmbeddingStore staging_;
  std::vector<ebsn::EventId> events_;
  uint32_t num_users_;
  SnapshotOptions options_;

  /// The last BuildNext result and what changed since: dirty_users_[u]
  /// is set when user u's row may have moved; reuse_blocked_ when a
  /// change may reach every partner.
  std::shared_ptr<const ModelSnapshot> last_;
  std::vector<uint8_t> dirty_users_;
  bool reuse_blocked_ = false;
};

/// A loaded artifact must fit the serving index and cover the serving
/// pool: its latent dimension must not exceed
/// QuantizedSpace::kMaxLatentDim, or the snapshot build would abort,
/// every recommendable event id must index into the new store, once,
/// and every user id must too, or QueryVector/TA would walk out of
/// bounds once published. Checked by both reload paths (ModelReloader
/// and IngestionQueue::ReloadBase) and by checkpoint recovery before a
/// store reaches ResetStagingStore, and by `gemrec serve` before its
/// first build.
Status ValidateStoreShape(const embedding::EmbeddingStore& store,
                          const std::vector<ebsn::EventId>& event_pool,
                          uint32_t num_users);
/// The same, against the builder's pool and user count.
Status ValidateStoreShape(const embedding::EmbeddingStore& store,
                          const SnapshotBuilder& builder);

}  // namespace gemrec::serving

#endif  // GEMREC_SERVING_SNAPSHOT_BUILDER_H_
