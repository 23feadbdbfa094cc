#include "serving/snapshot_builder.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "recommend/quantized_space.h"

namespace gemrec::serving {
namespace {

/// Whether two stores hold bitwise the same rows (padding ignored).
bool SameRows(const embedding::EmbeddingStore& a,
              const embedding::EmbeddingStore& b) {
  if (a.dim() != b.dim()) return false;
  for (size_t t = 0; t < embedding::EmbeddingStore::kNumTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    const Matrix& x = a.MatrixOf(type);
    const Matrix& y = b.MatrixOf(type);
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    for (size_t r = 0; r < x.rows(); ++r) {
      if (std::memcmp(x.Row(r), y.Row(r), x.cols() * sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

SnapshotBuilder::SnapshotBuilder(const embedding::EmbeddingStore& initial,
                                 std::vector<ebsn::EventId> events,
                                 uint32_t num_users,
                                 const SnapshotOptions& options)
    : staging_(initial),
      events_(std::move(events)),
      num_users_(num_users),
      options_(options),
      dirty_users_(num_users, 0) {}

Status SnapshotBuilder::FoldInEvent(
    ebsn::EventId event, const embedding::NewEventSignals& signals,
    const embedding::OnlineUpdateOptions& options) {
  // A pooled event's row is in every partner's ranking.
  const bool pooled =
      std::find(events_.begin(), events_.end(), event) != events_.end();
  if (pooled) reuse_blocked_ = true;
  GEMREC_RETURN_IF_ERROR(
      embedding::FoldInColdEvent(&staging_, event, signals, options));
  if (!pooled) events_.push_back(event);
  return Status::Ok();
}

std::shared_ptr<ModelSnapshot> SnapshotBuilder::Build() const {
  return std::make_shared<ModelSnapshot>(staging_, events_, num_users_,
                                         options_);
}

bool SnapshotBuilder::CanReuseLast() const {
  if (last_ == nullptr || reuse_blocked_) return false;
  const std::vector<ebsn::EventId>& previous = last_->events();
  return options_.top_k_events_per_partner > 0 &&
         previous.size() > options_.top_k_events_per_partner &&
         events_.size() >= previous.size() &&
         std::equal(previous.begin(), previous.end(), events_.begin());
}

std::shared_ptr<ModelSnapshot> SnapshotBuilder::BuildNext() {
  const SnapshotDelta delta{CanReuseLast() ? last_.get() : nullptr,
                            &dirty_users_};
  auto snapshot = std::make_shared<ModelSnapshot>(staging_, events_,
                                                  num_users_, options_, &delta);
  last_ = snapshot;
  std::fill(dirty_users_.begin(), dirty_users_.end(), 0);
  reuse_blocked_ = false;
  return snapshot;
}

bool SnapshotBuilder::AdoptIfCurrent(
    std::shared_ptr<const ModelSnapshot> served) {
  if (served == nullptr || served->num_users() != num_users_ ||
      served->events() != events_ || served->options() != options_ ||
      !SameRows(served->store(), staging_)) {
    return false;
  }
  last_ = std::move(served);
  std::fill(dirty_users_.begin(), dirty_users_.end(), 0);
  reuse_blocked_ = false;
  return true;
}

Status ValidateStoreShape(const embedding::EmbeddingStore& store,
                          const std::vector<ebsn::EventId>& event_pool,
                          uint32_t num_users) {
  if (store.dim() > recommend::QuantizedSpace::kMaxLatentDim) {
    return Status::FailedPrecondition(
        "store has " + std::to_string(store.dim()) +
        " latent dimensions but the quantized serving index supports at "
        "most " +
        std::to_string(recommend::QuantizedSpace::kMaxLatentDim));
  }
  const uint32_t num_events = store.CountOf(graph::NodeType::kEvent);
  std::vector<uint8_t> pooled(num_events, 0);
  for (const ebsn::EventId event : event_pool) {
    if (event >= num_events) {
      return Status::FailedPrecondition(
          "store has " + std::to_string(num_events) +
          " events but the serving pool references event " +
          std::to_string(event));
    }
    if (pooled[event] != 0) {
      return Status::FailedPrecondition("the serving pool lists event " +
                                        std::to_string(event) + " twice");
    }
    pooled[event] = 1;
  }
  const uint32_t store_users = store.CountOf(graph::NodeType::kUser);
  if (num_users > store_users) {
    return Status::FailedPrecondition(
        "store has " + std::to_string(store_users) +
        " users but the service serves " + std::to_string(num_users));
  }
  return Status::Ok();
}

Status ValidateStoreShape(const embedding::EmbeddingStore& store,
                          const SnapshotBuilder& builder) {
  return ValidateStoreShape(store, builder.event_pool(), builder.num_users());
}

}  // namespace gemrec::serving
