#ifndef GEMREC_SHARD_PARTITIONER_H_
#define GEMREC_SHARD_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ebsn/types.h"

namespace gemrec::shard {

/// Which disjoint slice of the candidate space one shard serves.
///
/// The placement rule lives here and nowhere else. Shard i of N owns
/// partner u iff u % N == i, and with it every candidate pair
/// (x, u). The paper's pruning (§IV) keeps each partner's own top-k
/// events, so the candidate space is a union of independent
/// per-partner lists: a shard builds and walks only the partners it
/// owns, and every partner contributes exactly min(k, |pool|) pairs,
/// so the N slices balance to within one partner. Group queries rank
/// whole events and split under the same rule by event id.
///
/// No coordination, no assignment tables: every shard process given
/// the same model artifacts and the same `count` derives the same
/// disjoint cover, and the union over index = 0..count-1 is exactly
/// the unsharded space. `count <= 1` means "the whole space"
/// (single-instance serving is the degenerate one-shard case).
struct ShardSpec {
  uint32_t index = 0;
  uint32_t count = 1;

  bool unsharded() const { return count <= 1; }
  bool valid() const { return count >= 1 && index < count; }

  bool operator==(const ShardSpec&) const = default;
};

/// True iff `spec` owns `partner` and so every candidate pair whose
/// partner it is.
inline bool OwnsPartner(const ShardSpec& spec, ebsn::UserId partner) {
  return spec.unsharded() || partner % spec.count == spec.index;
}

/// True iff `spec` owns `event` in the group-query scan. This event
/// cover is independent of the partner cover: both are disjoint and
/// complete on their own.
inline bool OwnsEvent(const ShardSpec& spec, ebsn::EventId event) {
  return spec.unsharded() || event % spec.count == spec.index;
}

/// The partners of 0..num_users-1 that `spec` owns, ascending: what a
/// shard passes to the candidate build.
inline std::vector<ebsn::UserId> OwnedPartners(const ShardSpec& spec,
                                               uint32_t num_users) {
  std::vector<ebsn::UserId> owned;
  for (ebsn::UserId u = 0; u < num_users; ++u) {
    if (OwnsPartner(spec, u)) owned.push_back(u);
  }
  return owned;
}

/// Parses "i/N" (e.g. "0/4") into a spec; returns false on malformed
/// text, N == 0, or i >= N. "0/1" is the explicit unsharded spec.
inline bool ParseShardSpec(const std::string& text, ShardSpec* out) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= text.size()) {
    return false;
  }
  uint64_t index = 0;
  uint64_t count = 0;
  for (size_t i = 0; i < slash; ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return false;
    index = index * 10 + static_cast<uint64_t>(c - '0');
    if (index > UINT32_MAX) return false;
  }
  for (size_t i = slash + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return false;
    count = count * 10 + static_cast<uint64_t>(c - '0');
    if (count > UINT32_MAX) return false;
  }
  if (count == 0 || index >= count) return false;
  out->index = static_cast<uint32_t>(index);
  out->count = static_cast<uint32_t>(count);
  return true;
}

}  // namespace gemrec::shard

#endif  // GEMREC_SHARD_PARTITIONER_H_
