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
/// The staging store is never the one being served — Build() deep-
/// copies it into the snapshot — so fold-ins between builds are
/// invisible to queries until the next Publish, and a half-applied
/// update can never leak into serving.
///
/// Not thread-safe: one updater thread owns the builder (the service
/// handles concurrency on the query side).
class SnapshotBuilder {
 public:
  /// Copies `initial` as the staging store. `events` is the
  /// recommendable pool snapshots are built over (replaceable via
  /// set_event_pool as fresh events fold in).
  SnapshotBuilder(const embedding::EmbeddingStore& initial,
                  std::vector<ebsn::EventId> events, uint32_t num_users,
                  const SnapshotOptions& options);

  /// Fold-in wrappers over embedding/online_update.h, applied to the
  /// staging store only.
  Status FoldInEvent(ebsn::EventId event,
                     const embedding::NewEventSignals& signals,
                     const embedding::OnlineUpdateOptions& options) {
    return embedding::FoldInColdEvent(&staging_, event, signals, options);
  }
  Status FoldInUser(ebsn::UserId user,
                    const embedding::NewUserSignals& signals,
                    const embedding::OnlineUpdateOptions& options) {
    return embedding::FoldInColdUser(&staging_, user, signals, options);
  }
  Status RecordAttendance(ebsn::UserId user, ebsn::EventId event,
                          const embedding::OnlineUpdateOptions& options) {
    return embedding::UpdateUserWithAttendance(&staging_, user, event,
                                               options);
  }

  /// Replaces the event pool of future builds (e.g. after FoldInEvent
  /// makes a just-published event recommendable).
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
  }

  /// Direct access for updates not covered by the wrappers.
  embedding::EmbeddingStore* staging_store() { return &staging_; }

  /// Builds an immutable snapshot of the current staging state. Heavy
  /// (candidate build + space transform + TA preprocessing); run it on
  /// the updater thread, then Publish the result.
  std::shared_ptr<ModelSnapshot> Build() const;

 private:
  embedding::EmbeddingStore staging_;
  std::vector<ebsn::EventId> events_;
  uint32_t num_users_;
  SnapshotOptions options_;
};

/// A loaded artifact must fit the serving index and cover the serving
/// pool: its latent dimension must not exceed
/// QuantizedSpace::kMaxLatentDim, or the snapshot build would abort,
/// and every recommendable event id and every user id must index into
/// the new store, or QueryVector/TA would walk out of bounds once
/// published. Checked by both reload paths (ModelReloader and
/// IngestionQueue::ReloadBase) before a store reaches
/// ResetStagingStore, and by `gemrec serve` before its first build.
Status ValidateStoreShape(const embedding::EmbeddingStore& store,
                          const SnapshotBuilder& builder);

}  // namespace gemrec::serving

#endif  // GEMREC_SERVING_SNAPSHOT_BUILDER_H_
