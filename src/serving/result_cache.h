#ifndef GEMREC_SERVING_RESULT_CACHE_H_
#define GEMREC_SERVING_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ebsn/types.h"
#include "recommend/query_kinds.h"
#include "recommend/recommender.h"
#include "serving/query_backend.h"

namespace gemrec::serving {

/// Cache key of one top-n query: who asked, how many results, which
/// filtered event pool the snapshot was built over — and which
/// workload. The kind, aggregator and group members are key components
/// because every kind ranks a different objective over a different
/// result shape: without them a kGroup answer (events, no partners)
/// would replay for the same user's kPartner query and vice versa.
struct CacheKey {
  ebsn::UserId user = 0;
  uint32_t n = 0;
  uint64_t filter_hash = 0;
  recommend::QueryKind kind = recommend::QueryKind::kPartner;
  recommend::GroupAggregator aggregator = recommend::GroupAggregator::kSum;
  /// The group member list, compared exactly (member order is
  /// semantic for the sum aggregator); empty for groupless kinds. Its
  /// digest only feeds the hash: two lists can share one.
  std::vector<ebsn::UserId> group = {};

  /// Order-sensitive FNV-1a digest of a group member list.
  static uint64_t HashGroup(const std::vector<ebsn::UserId>& members) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const ebsn::UserId m : members) {
      h ^= static_cast<uint64_t>(m);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  /// The cache key a request resolves to (the single place the
  /// request -> key mapping is defined, so every lookup/insert site
  /// agrees on what distinguishes two queries).
  static CacheKey For(const QueryRequest& request) {
    CacheKey key;
    key.user = request.user;
    key.n = request.n;
    key.filter_hash = request.filter_hash;
    key.kind = request.kind;
    key.aggregator = request.aggregator;
    if (request.kind == recommend::QueryKind::kGroup) {
      key.group = request.group;
    }
    return key;
  }

  bool operator==(const CacheKey& other) const {
    return user == other.user && n == other.n &&
           filter_hash == other.filter_hash && kind == other.kind &&
           aggregator == other.aggregator && group == other.group;
  }
};

/// Sharded LRU cache for recommendation lists.
///
/// Staleness safety: every entry records the epoch of the snapshot
/// that produced it, and Lookup only returns entries whose epoch
/// equals the caller's current-snapshot epoch — so a hit can never
/// serve results computed on a retired snapshot. Swap "invalidation"
/// is therefore O(1): publishing a new epoch makes every older entry
/// unreturnable; the stale storage is reclaimed lazily, either by the
/// epoch-mismatch eviction in Lookup or by normal LRU pressure.
///
/// Sharding: the key hash picks one of `num_shards` independently
/// locked shards, so concurrent workers rarely contend on the same
/// mutex. The shard count is clamped to `capacity`, and capacity is
/// split exactly across shards (floor share + distributed remainder),
/// so total residency never exceeds the configured capacity —
/// `size() <= capacity()` is an invariant, pinned by tests.
class ResultCache {
 public:
  /// `capacity` 0 disables the cache entirely (every Lookup misses and
  /// Insert is a no-op). `num_shards` is clamped to >= 1.
  ResultCache(size_t capacity, size_t num_shards);

  /// If present with a matching epoch, copies the list into `*out` and
  /// refreshes recency. An entry found with a stale epoch is erased.
  /// `bound_out`, when non-null, receives the entry's stored
  /// unreturned-score bound — cached hits must replay the bound the
  /// original search certified, or a sharded coordinator would see
  /// +inf/-inf garbage from hot shards and misjudge completeness.
  bool Lookup(const CacheKey& key, uint64_t epoch,
              std::vector<recommend::Recommendation>* out,
              float* bound_out = nullptr);

  /// Inserts (or overwrites) the entry, evicting the shard's LRU tail
  /// beyond capacity. An insert carrying an epoch older than the
  /// resident entry's is dropped — a straggler from a retired snapshot
  /// never downgrades a fresh result. `bound` is the search's
  /// unreturned-score bound, replayed by later Lookup hits.
  void Insert(const CacheKey& key, uint64_t epoch,
              const std::vector<recommend::Recommendation>& items,
              float bound = 0.0f);

  /// Drops every entry (used by tests; swaps rely on epoch checks).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CacheKey key;
    uint64_t epoch = 0;
    std::vector<recommend::Recommendation> items;
    /// Unreturned-score bound certified by the search that produced
    /// `items` (SearchStats::unreturned_bound).
    float bound = 0.0f;
  };
  /// Full-avalanche finalizer (splitmix64): every output bit depends
  /// on every input bit. Shard selection takes `hash % num_shards`, so
  /// the LOW bits must vary with `user` — a single multiply + one
  /// xor-shift leaves them constant across users (user sits in the
  /// high word) and collapses the cache onto one shard.
  struct KeyHash {
    size_t operator()(const CacheKey& k) const {
      uint64_t h =
          k.filter_hash ^ ((static_cast<uint64_t>(k.user) << 32) | k.n);
      if (!k.group.empty()) h ^= CacheKey::HashGroup(k.group);
      h ^= (static_cast<uint64_t>(k.kind) << 8 |
            static_cast<uint64_t>(k.aggregator))
           << 48;
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      h *= 0xc4ceb9fe1a85ec53ULL;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };
  struct Shard {
    mutable std::mutex mu;
    /// This shard's slice of the total capacity (floor + remainder).
    size_t capacity = 0;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> map;
  };

  Shard& ShardOf(const CacheKey& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }

  size_t capacity_;
  std::vector<Shard> shards_;
};

}  // namespace gemrec::serving

#endif  // GEMREC_SERVING_RESULT_CACHE_H_
