#include "serving/model_snapshot.h"

#include <utility>

#include "recommend/candidate_index.h"

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
                             const SnapshotOptions& options)
    : store_(store),
      model_(&store_, "gem-snapshot"),
      events_(std::move(events)),
      shard_(options.shard),
      num_users_(num_users),
      pool_hash_(HashEventPool(events_)) {
  // Group queries scan whole events, which the pair-granular shard
  // filter below does not partition (every shard sees pairs of most
  // events); their disjoint cover is this event-id-hash slice.
  if (shard_.unsharded()) {
    shard_events_ = events_;
  } else {
    for (const ebsn::EventId x : events_) {
      if (shard::OwnsEvent(shard_, x)) shard_events_.push_back(x);
    }
  }
  auto pairs = recommend::BuildCandidatePairs(
      model_, events_, num_users_, options.top_k_events_per_partner,
      options.build_pool);
  // Shard filter AFTER the (deterministic) candidate build: every
  // shard derives the identical full pair list and keeps its disjoint
  // hash slice, so the N slices reassemble the single-instance space
  // exactly.
  if (!options.shard.unsharded()) {
    std::erase_if(pairs, [&](const recommend::CandidatePair& p) {
      return !shard::OwnsPair(options.shard, p.event, p.partner);
    });
  }
  space_ = std::make_unique<recommend::TransformedSpace>(model_,
                                                         std::move(pairs));
  // One grouping/sort pass shared by the exact and quantized searchers.
  index_ = std::make_unique<recommend::SpaceIndex>(space_.get());
  ta_ = std::make_unique<recommend::TaSearch>(index_.get());
  quant_ = std::make_unique<recommend::QuantizedSpace>(index_.get());
  batch_ = std::make_unique<recommend::BatchTaSearch>(quant_.get());
}

}  // namespace gemrec::serving
