#ifndef GEMREC_SHARD_SHARD_GROUP_H_
#define GEMREC_SHARD_SHARD_GROUP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "ebsn/types.h"
#include "embedding/embedding_store.h"
#include "net/server.h"
#include "serving/model_snapshot.h"
#include "serving/recommendation_service.h"
#include "shard/coordinator.h"

namespace gemrec::shard {

struct ShardGroupOptions {
  uint32_t num_shards = 2;
  /// Per-shard serve-stack knobs. snapshot.shard is overwritten per
  /// shard ({i, num_shards}); server.port should stay 0 (ephemeral) —
  /// restarts rebind whatever port each shard originally got.
  serving::ServiceOptions service;
  serving::SnapshotOptions snapshot;
  net::ServerOptions server;
};

/// In-process test/bench harness: boots N REAL serve stacks — each a
/// ModelSnapshot built over its ShardSpec slice, a
/// RecommendationService and a NetServer on an ephemeral 127.0.0.1
/// port — from one embedding store. What a coordinator talks to here
/// is byte-for-byte what it talks to across machines; nothing is
/// mocked.
///
/// StopShard kills one stack (connections die mid-load — the breaker
/// test's fault injector); RestartShard rebuilds the stack and rebinds
/// the SAME port, so the coordinator's fixed-endpoint re-probe finds
/// the shard again.
class ShardGroup {
 public:
  /// Copies `store` (restarts rebuild snapshots from the copy).
  ShardGroup(const embedding::EmbeddingStore& store,
             std::vector<ebsn::EventId> events, uint32_t num_users,
             const ShardGroupOptions& options);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Builds + starts every shard stack.
  Status Start();
  void Stop();

  /// Shard addresses in shard order — feed straight into a
  /// CoordinatorBackend or `gemrec coordinate --shards`.
  std::vector<ShardEndpoint> endpoints() const;
  uint16_t port(uint32_t index) const;

  /// Tears one stack down (its connections reset).
  void StopShard(uint32_t index);
  /// Rebuilds the stack and rebinds the shard's previous port.
  Status RestartShard(uint32_t index);

  uint32_t num_shards() const { return options_.num_shards; }

 private:
  struct Stack {
    std::unique_ptr<serving::RecommendationService> service;
    std::unique_ptr<net::NetServer> server;
    uint16_t port = 0;
  };

  Status StartShard(uint32_t index, uint16_t port);

  embedding::EmbeddingStore store_;
  std::vector<ebsn::EventId> events_;
  uint32_t num_users_;
  ShardGroupOptions options_;
  std::vector<Stack> stacks_;
  bool started_ = false;
};

}  // namespace gemrec::shard

#endif  // GEMREC_SHARD_SHARD_GROUP_H_
