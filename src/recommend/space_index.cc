#include "recommend/space_index.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.h"

namespace gemrec::recommend {
namespace {

/// Groups the pairs by `id_of(i)` in order of first appearance: fills
/// the distinct ids, the CSR offsets and pair ids, and pair -> group.
/// Returns the dense id -> group array (kNoGroup where absent).
template <typename IdOf>
std::vector<uint32_t> GroupPairs(size_t n, IdOf id_of, uint32_t no_group,
                                 std::vector<uint32_t>* ids,
                                 std::vector<uint32_t>* offsets,
                                 std::vector<uint32_t>* pair_ids,
                                 std::vector<uint32_t>* pair_group) {
  uint32_t max_id = 0;
  for (size_t i = 0; i < n; ++i) max_id = std::max(max_id, id_of(i));
  std::vector<uint32_t> group_of(n == 0 ? 0 : size_t{max_id} + 1, no_group);
  pair_group->resize(n);
  std::vector<uint32_t> counts;
  for (size_t i = 0; i < n; ++i) {
    uint32_t& g = group_of[id_of(i)];
    if (g == no_group) {
      g = static_cast<uint32_t>(ids->size());
      ids->push_back(id_of(i));
      counts.push_back(0);
    }
    (*pair_group)[i] = g;
    ++counts[g];
  }
  offsets->assign(ids->size() + 1, 0);
  for (size_t g = 0; g < ids->size(); ++g) {
    (*offsets)[g + 1] = (*offsets)[g] + counts[g];
  }
  // Scatter in ascending pair id: each group's list stays ascending.
  pair_ids->resize(n);
  std::copy(offsets->begin(), offsets->end() - 1, counts.begin());
  for (size_t i = 0; i < n; ++i) {
    (*pair_ids)[counts[(*pair_group)[i]]++] = static_cast<uint32_t>(i);
  }
  return group_of;
}

/// Unsigned key whose ascending order is the float's descending order.
/// Both zeros map to one key, as `>` finds them equal.
uint32_t DescendingKey(float c) {
  const uint32_t bits = std::bit_cast<uint32_t>(c == 0.0f ? 0.0f : c);
  const uint32_t ascending =
      (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
  return ~ascending;
}

}  // namespace

void SortByHighWord(std::vector<uint64_t>* items) {
  // LSD radix sort of the high word, 8 bits per pass: every pass is
  // stable, so items with equal high words keep their order. A pass
  // whose digit is the same for every item would leave the order as it
  // is and is skipped.
  constexpr int kBits = 8;
  constexpr uint64_t kMask = (1u << kBits) - 1;
  const size_t n = items->size();
  std::vector<uint64_t> next(n);
  for (int shift = 32; shift < 64; shift += kBits) {
    std::array<uint32_t, kMask + 1> count{};
    for (const uint64_t item : *items) ++count[(item >> shift) & kMask];
    if (n == 0 || count[((*items)[0] >> shift) & kMask] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& b : count) {
      const uint32_t here = b;
      b = sum;
      sum += here;
    }
    for (const uint64_t item : *items) {
      next[count[(item >> shift) & kMask]++] = item;
    }
    items->swap(next);
  }
}

SpaceIndex::SpaceIndex(const TransformedSpace* space,
                       const SpaceIndex* previous,
                       std::span<const uint8_t> ranked)
    : space_(space) {
  GEMREC_CHECK(space != nullptr);
  latent_dim_ = space->model().dim();
  const size_t n = space_->num_points();
  const std::vector<CandidatePair>& pairs = space_->pairs();
  const std::vector<float>& c = space_->c_values();

  // Slice s holds pairs [s * k, (s + 1) * k). With no previous, every
  // pair is ranked: one slice of all n pairs.
  size_t k = n;
  size_t num_slices = n == 0 ? 0 : 1;
  std::span<const uint32_t> previous_order;
  std::span<const float> previous_values;
  if (previous != nullptr) {
    num_slices = previous->num_partners();
    GEMREC_CHECK(ranked.size() == num_slices &&
                 n == previous->space().num_points())
        << "the space and its previous index hold other partner slices";
    // The partner groups are the slices: each holds k pairs of one
    // partner, in the previous partner order, so they copy unchanged.
    k = num_slices == 0 ? 0 : n / num_slices;
    for (size_t g = 0; g < num_slices; ++g) {
      GEMREC_CHECK(previous->partner_offsets_[g + 1] == (g + 1) * k)
          << "partner group " << g << " is not a slice of " << k << " pairs";
      const size_t checked = ranked[g] != 0 ? k : 1;
      for (size_t j = 0; j < checked; ++j) {
        GEMREC_CHECK(pairs[g * k + j].partner == previous->partners_[g])
            << "slice " << g << " changed partner";
      }
    }
    partners_ = previous->partners_;
    partner_offsets_ = previous->partner_offsets_;
    partner_pair_ids_ = previous->partner_pair_ids_;
    partner_group_ = previous->partner_group_;
    pair_partner_idx_ = previous->pair_partner_idx_;
    previous_order = previous->c_sorted_;
    previous_values = previous->c_sorted_values_;
  } else {
    partner_group_ = GroupPairs(
        n, [&](size_t i) { return pairs[i].partner; }, kNoGroup, &partners_,
        &partner_offsets_, &partner_pair_ids_, &pair_partner_idx_);
  }
  GroupPairs(
      n, [&](size_t i) { return pairs[i].event; }, kNoGroup, &events_,
      &event_offsets_, &event_pair_ids_, &pair_event_idx_);
  // The ranked pairs as (key << 32 | id) items, sorted: by C
  // descending, ties in ascending id, as std::stable_sort orders them.
  std::vector<uint64_t> fresh;
  for (size_t slice = 0; slice < num_slices; ++slice) {
    if (previous != nullptr && ranked[slice] == 0) continue;
    const size_t at = fresh.size();
    fresh.resize(at + k);
    for (size_t j = 0; j < k; ++j) {
      const size_t i = slice * k + j;
      fresh[at + j] = uint64_t{DescendingKey(c[i])} << 32 | i;
    }
  }
  SortByHighWord(&fresh);
  // Merge them with the previous order less the ranked slices, whose
  // keys come from the previous C values in walk order. Every other
  // pair's C is unchanged, so each stream is in (key, id) order and
  // the merge is the full sort.
  c_sorted_.resize(n);
  c_sorted_values_.resize(n);
  size_t out = 0;
  auto emit = [&](uint32_t id, float value) {
    c_sorted_[out] = id;
    c_sorted_values_[out] = value;
    ++out;
  };
  auto f = fresh.begin();
  for (size_t r = 0; r < previous_order.size(); ++r) {
    const uint32_t id = previous_order[r];
    if (ranked[id / k] != 0) continue;
    const float value = previous_values[r];
    const uint64_t item = uint64_t{DescendingKey(value)} << 32 | id;
    for (; f != fresh.end() && *f < item; ++f) {
      emit(static_cast<uint32_t>(*f), c[static_cast<uint32_t>(*f)]);
    }
    emit(id, value);
  }
  for (; f != fresh.end(); ++f) {
    emit(static_cast<uint32_t>(*f), c[static_cast<uint32_t>(*f)]);
  }
  GEMREC_CHECK(out == n);
}

}  // namespace gemrec::recommend
