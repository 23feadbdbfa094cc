// Partitioner invariants the whole tier rests on: partners and events
// each have exactly one owning shard for every shard count, the N
// partner slices differ in size by at most one, every shard's snapshot
// holds exactly min(k, |pool|) pairs per owned partner and no other
// partner, the shards' pair lists reassemble the unsharded list, and
// the `i/N` CLI spec parser rejects every malformed form.

#include "shard/partitioner.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "recommend/space_index.h"
#include "serving/model_snapshot.h"

namespace gemrec::shard {
namespace {

TEST(PartitionerTest, DisjointCompleteCoverForEveryShardCount) {
  for (const uint32_t count : {1u, 2u, 3u, 4u, 8u}) {
    for (uint32_t id = 0; id < 100; ++id) {
      uint32_t partner_owners = 0;
      uint32_t event_owners = 0;
      for (uint32_t index = 0; index < count; ++index) {
        partner_owners += OwnsPartner(ShardSpec{index, count}, id) ? 1 : 0;
        event_owners += OwnsEvent(ShardSpec{index, count}, id) ? 1 : 0;
      }
      ASSERT_EQ(partner_owners, 1u)
          << "partner " << id << " owned by " << partner_owners
          << " shards of " << count;
      ASSERT_EQ(event_owners, 1u)
          << "event " << id << " owned by " << event_owners
          << " shards of " << count;
    }
  }
}

TEST(PartitionerTest, SlicesBalanceToWithinOnePartner) {
  for (const uint32_t count : {1u, 2u, 3u, 4u, 8u}) {
    for (const uint32_t num_users : {0u, 1u, 5u, 37u, 100u}) {
      std::vector<uint32_t> seen(num_users, 0);
      size_t smallest = num_users;
      size_t largest = 0;
      for (uint32_t index = 0; index < count; ++index) {
        const ShardSpec spec{index, count};
        const std::vector<ebsn::UserId> owned =
            OwnedPartners(spec, num_users);
        EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()));
        for (const ebsn::UserId u : owned) {
          ASSERT_LT(u, num_users);
          EXPECT_TRUE(OwnsPartner(spec, u));
          ++seen[u];
        }
        smallest = std::min(smallest, owned.size());
        largest = std::max(largest, owned.size());
      }
      EXPECT_LE(largest - smallest, 1u)
          << count << " shards over " << num_users << " users";
      for (uint32_t u = 0; u < num_users; ++u) {
        EXPECT_EQ(seen[u], 1u) << "partner " << u << " of " << num_users;
      }
    }
  }
}

TEST(PartitionerTest, UnshardedSpecOwnsEverything) {
  const ShardSpec spec;  // default 0/1
  EXPECT_TRUE(spec.unsharded());
  EXPECT_TRUE(spec.valid());
  EXPECT_TRUE(OwnsPartner(spec, 456));
  EXPECT_TRUE(OwnsEvent(spec, 123));
  EXPECT_EQ(OwnedPartners(spec, 3), (std::vector<ebsn::UserId>{0, 1, 2}));
  EXPECT_FALSE((ShardSpec{0, 2}).unsharded());
}

TEST(PartitionerTest, ParseShardSpecAcceptsWellFormed) {
  ShardSpec spec;
  ASSERT_TRUE(ParseShardSpec("0/1", &spec));
  EXPECT_EQ(spec.index, 0u);
  EXPECT_EQ(spec.count, 1u);
  ASSERT_TRUE(ParseShardSpec("3/4", &spec));
  EXPECT_EQ(spec.index, 3u);
  EXPECT_EQ(spec.count, 4u);
  ASSERT_TRUE(ParseShardSpec("0/16", &spec));
  EXPECT_EQ(spec.count, 16u);
}

TEST(PartitionerTest, ParseShardSpecRejectsMalformed) {
  ShardSpec spec;
  for (const char* bad :
       {"", "/", "1/", "/4", "4/4", "5/4", "1/0", "0/0", "a/4", "1/b",
        "1/4/2", "-1/4", "1 /4", "1/+4", "0x1/4"}) {
    EXPECT_FALSE(ParseShardSpec(bad, &spec)) << "'" << bad << "'";
  }
}

constexpr uint32_t kUsers = 23;
constexpr uint32_t kEvents = 9;

std::unique_ptr<embedding::EmbeddingStore> RandomStore(uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      6, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents() {
  std::vector<ebsn::EventId> events(kEvents);
  for (uint32_t x = 0; x < kEvents; ++x) events[x] = x;
  return events;
}

std::shared_ptr<serving::ModelSnapshot> BuildShard(
    const embedding::EmbeddingStore& store, uint32_t top_k,
    const ShardSpec& spec) {
  serving::SnapshotOptions options;
  options.top_k_events_per_partner = top_k;
  options.shard = spec;
  return std::make_shared<serving::ModelSnapshot>(store, AllEvents(), kUsers,
                                                  options);
}

TEST(PartitionerTest, PerShardPairCountsAreExact) {
  const auto store = RandomStore(7);
  // 4 prunes the 9-event pool; 0 and 20 keep every event.
  for (const uint32_t top_k : {4u, 0u, 20u}) {
    const size_t per_partner =
        (top_k == 0 || top_k >= kEvents) ? kEvents : top_k;
    for (const uint32_t count : {1u, 2u, 3u, 4u, 8u}) {
      for (uint32_t index = 0; index < count; ++index) {
        const ShardSpec spec{index, count};
        const auto snapshot = BuildShard(*store, top_k, spec);
        EXPECT_EQ(snapshot->num_candidate_pairs(),
                  per_partner * OwnedPartners(spec, kUsers).size())
            << "top_k " << top_k << " shard " << index << "/" << count;
      }
    }
  }
}

TEST(PartitionerSnapshotTest, ShardsHoldExactlyTheirPartners) {
  const auto store = RandomStore(3);
  constexpr uint32_t kTopK = 4;
  const auto whole = BuildShard(*store, kTopK, ShardSpec{});
  const std::vector<recommend::CandidatePair>& want = whole->space().pairs();
  for (const uint32_t count : {2u, 3u, 4u}) {
    std::vector<recommend::CandidatePair> reassembled;
    for (uint32_t index = 0; index < count; ++index) {
      const ShardSpec spec{index, count};
      const auto snapshot = BuildShard(*store, kTopK, spec);
      const recommend::SpaceIndex index_of(&snapshot->space());
      std::vector<ebsn::UserId> partners = index_of.partners();
      std::sort(partners.begin(), partners.end());
      EXPECT_EQ(partners, OwnedPartners(spec, kUsers))
          << "shard " << index << "/" << count;
      const auto& pairs = snapshot->space().pairs();
      reassembled.insert(reassembled.end(), pairs.begin(), pairs.end());
    }
    // A partner lives on one shard, so ordering the concatenation by
    // partner (stably) restores the unsharded list exactly.
    std::stable_sort(reassembled.begin(), reassembled.end(),
                     [](const recommend::CandidatePair& a,
                        const recommend::CandidatePair& b) {
                       return a.partner < b.partner;
                     });
    ASSERT_EQ(reassembled.size(), want.size()) << count << " shards";
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(reassembled[i].event, want[i].event)
          << count << " shards, pair " << i;
      EXPECT_EQ(reassembled[i].partner, want[i].partner)
          << count << " shards, pair " << i;
    }
  }
}

}  // namespace
}  // namespace gemrec::shard
