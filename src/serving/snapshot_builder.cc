#include "serving/snapshot_builder.h"

#include <string>
#include <utility>

#include "recommend/quantized_space.h"

namespace gemrec::serving {

SnapshotBuilder::SnapshotBuilder(const embedding::EmbeddingStore& initial,
                                 std::vector<ebsn::EventId> events,
                                 uint32_t num_users,
                                 const SnapshotOptions& options)
    : staging_(initial),
      events_(std::move(events)),
      num_users_(num_users),
      options_(options) {}

std::shared_ptr<ModelSnapshot> SnapshotBuilder::Build() const {
  return std::make_shared<ModelSnapshot>(staging_, events_, num_users_,
                                         options_);
}

Status ValidateStoreShape(const embedding::EmbeddingStore& store,
                          const SnapshotBuilder& builder) {
  if (store.dim() > recommend::QuantizedSpace::kMaxLatentDim) {
    return Status::FailedPrecondition(
        "store has " + std::to_string(store.dim()) +
        " latent dimensions but the quantized serving index supports at "
        "most " +
        std::to_string(recommend::QuantizedSpace::kMaxLatentDim));
  }
  const uint32_t num_events = store.CountOf(graph::NodeType::kEvent);
  for (const ebsn::EventId event : builder.event_pool()) {
    if (event >= num_events) {
      return Status::FailedPrecondition(
          "reloaded store has " + std::to_string(num_events) +
          " events but the serving pool references event " +
          std::to_string(event));
    }
  }
  const uint32_t num_users = store.CountOf(graph::NodeType::kUser);
  if (builder.num_users() > num_users) {
    return Status::FailedPrecondition(
        "reloaded store has " + std::to_string(num_users) +
        " users but the service serves " +
        std::to_string(builder.num_users()));
  }
  return Status::Ok();
}

}  // namespace gemrec::serving
