#include "serving/model_snapshot.h"

#include <utility>

namespace gemrec::serving {

uint64_t ModelSnapshot::HashEventPool(
    const std::vector<ebsn::EventId>& events) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const ebsn::EventId x : events) {
    h ^= static_cast<uint64_t>(x);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ModelSnapshot::ModelSnapshot(const embedding::EmbeddingStore& store,
                             std::vector<ebsn::EventId> events,
                             uint32_t num_users,
                             const SnapshotOptions& options,
                             const SnapshotDelta* delta)
    : store_(store),
      model_(&store_, "gem-snapshot"),
      events_(std::move(events)),
      num_users_(num_users),
      options_(options),
      pool_hash_(HashEventPool(events_)) {
  // Group queries scan whole events, so their cover is by event id;
  // partner and reciprocal queries walk only the owned partners' pairs.
  std::vector<ebsn::EventId> owned;
  for (const ebsn::EventId x : events_) {
    if (shard::OwnsEvent(options.shard, x)) owned.push_back(x);
  }
  shard_events_ = recommend::OrderEventsByNorm(model_, owned);
  const ModelSnapshot* previous = delta ? delta->previous : nullptr;
  recommend::CandidateDelta candidate_delta;
  if (previous != nullptr) {
    candidate_delta = {&previous->space(), previous->events().size(),
                       delta->dirty_users};
  }
  recommend::CandidateList list = recommend::BuildCandidateList(
      model_, events_, shard::OwnedPartners(options.shard, num_users_),
      options.top_k_events_per_partner,
      previous ? &candidate_delta : nullptr);
  space_ = std::make_unique<recommend::TransformedSpace>(
      model_, std::move(list.pairs), std::move(list.c));
  // One grouping/sort pass shared by the exact and quantized searchers;
  // with a previous snapshot, its index and codes are reused for every
  // slice that was not ranked again.
  index_ = std::make_unique<recommend::SpaceIndex>(
      space_.get(), previous ? &previous->index() : nullptr, list.ranked);
  quant_ = std::make_unique<recommend::QuantizedSpace>(
      index_.get(), previous ? &previous->quantized() : nullptr, list.ranked);
  ta_ = std::make_unique<recommend::TaSearch>(index_.get());
  batch_ = std::make_unique<recommend::BatchTaSearch>(quant_.get());
}

}  // namespace gemrec::serving
