#ifndef GEMREC_RECOMMEND_SPACE_INDEX_H_
#define GEMREC_RECOMMEND_SPACE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ebsn/types.h"
#include "recommend/space_transform.h"

namespace gemrec::recommend {

/// Query-independent structure of a TransformedSpace, extracted from
/// TaSearch so every searcher over the same space (exact TA, the
/// quantized batch path, and QuantizedSpace's per-group compaction)
/// shares one preprocessing pass instead of each rebuilding it:
///   * distinct events/partners in order of first appearance, with
///     their pair-index lists (the "groups" whose aggregate components
///     A and B the TA walks), each list in ascending pair id,
///   * pair -> group inverse maps for O(1) random-access scoring,
///   * the pair order sorted by the C coordinate descending, ties in
///     ascending pair id (the one sorted list that is
///     query-independent), with the C values in that order so a walk
///     down the C list reads them sequentially,
///   * the partner census used by the exclusion filter.
///
/// Every pass is linear: ids map to groups through dense arrays, and
/// the C order is an LSD radix sort, which is stable and so equals
/// std::stable_sort by C descending.
///
/// Immutable after construction; `space` must outlive the index.
class SpaceIndex {
 public:
  /// Indexes `space`. With a `previous` index, `space` is a pruned
  /// space built from previous's by BuildCandidateList with a delta:
  /// both hold the same partners' slices of k pairs each, in the same
  /// order, and slice i (pairs [i * k, (i + 1) * k)) differs from
  /// previous's only where ranked[i] != 0 (CandidateList::ranked).
  /// The partner groups are then copied; with no previous they are
  /// grouped from the pairs, and every pair counts as ranked. The
  /// event groups are always grouped again, and the C order merges
  /// previous's order, less the ranked pairs, with those pairs' own
  /// sorted order in one sequential pass: with no previous, that is
  /// the full sort. A delta build is bitwise the index with no
  /// previous; `previous` need only live through the call.
  explicit SpaceIndex(const TransformedSpace* space,
                      const SpaceIndex* previous = nullptr,
                      std::span<const uint8_t> ranked = {});

  const TransformedSpace& space() const { return *space_; }
  /// K: the latent dimension (point_dim == 2K + 1).
  uint32_t latent_dim() const { return latent_dim_; }

  size_t num_events() const { return events_.size(); }
  size_t num_partners() const { return partners_.size(); }

  const std::vector<ebsn::EventId>& events() const { return events_; }
  const std::vector<ebsn::UserId>& partners() const { return partners_; }
  /// Pair ids of event group / partner group g, ascending.
  std::span<const uint32_t> EventPairs(size_t g) const {
    return {event_pair_ids_.data() + event_offsets_[g],
            event_offsets_[g + 1] - event_offsets_[g]};
  }
  std::span<const uint32_t> PartnerPairs(size_t g) const {
    return {partner_pair_ids_.data() + partner_offsets_[g],
            partner_offsets_[g + 1] - partner_offsets_[g]};
  }
  const std::vector<uint32_t>& pair_event_idx() const {
    return pair_event_idx_;
  }
  const std::vector<uint32_t>& pair_partner_idx() const {
    return pair_partner_idx_;
  }
  const std::vector<uint32_t>& c_sorted() const { return c_sorted_; }
  /// c_sorted_values()[r] is the C of pair c_sorted()[r], bitwise.
  const std::vector<float>& c_sorted_values() const {
    return c_sorted_values_;
  }

  /// Number of candidate pairs whose partner is NOT `exclude_partner`
  /// (O(1) via the partner census): the count of results a top-n query
  /// can possibly return.
  size_t ResultsPossible(ebsn::UserId exclude_partner) const {
    size_t possible = space_->num_points();
    if (exclude_partner < partner_group_.size() &&
        partner_group_[exclude_partner] != kNoGroup) {
      possible -= PartnerPairs(partner_group_[exclude_partner]).size();
    }
    return possible;
  }

 private:
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

  const TransformedSpace* space_;
  uint32_t latent_dim_;

  std::vector<ebsn::EventId> events_;
  std::vector<uint32_t> event_offsets_;  // num_events + 1
  std::vector<uint32_t> event_pair_ids_;
  std::vector<ebsn::UserId> partners_;
  std::vector<uint32_t> partner_offsets_;  // num_partners + 1
  std::vector<uint32_t> partner_pair_ids_;
  std::vector<uint32_t> partner_group_;  // partner id -> group
  std::vector<uint32_t> pair_event_idx_;
  std::vector<uint32_t> pair_partner_idx_;
  std::vector<uint32_t> c_sorted_;
  std::vector<float> c_sorted_values_;
};

/// Sorts `items` by their high 32 bits, stably (items with equal high
/// words keep their order), in linear time. With (key << 32 | i) items
/// built in ascending i, this is std::sort of the items.
void SortByHighWord(std::vector<uint64_t>* items);

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_SPACE_INDEX_H_
