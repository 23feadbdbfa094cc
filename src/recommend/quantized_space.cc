#include "recommend/quantized_space.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/vec_math.h"

namespace gemrec::recommend {
namespace {

/// Code range: 11 bits keeps a <=512-dim int32 accumulation exact
/// (512 * 2047^2 < 2^31). See the kernel contract in common/vec_math.h.
constexpr int kLevels = 2047;

/// Dimensions whose value range is below this are treated as constant:
/// scale 0, all codes 0, and the (tiny) residual range charged to the
/// error bound directly. Also the divide-by-zero guard for all-zero or
/// constant columns.
constexpr float kFlatRange = 1e-12f;

/// The sum of a code row's k codes.
uint64_t RowSum(const int16_t* row, uint32_t k) {
  uint64_t sum = 0;
  for (uint32_t d = 0; d < k; ++d) sum += static_cast<uint64_t>(row[d]);
  return sum;
}

}  // namespace

CodeBlocks::CodeBlocks(const std::vector<int16_t>& changed_rows, uint32_t k,
                       const CodeBlocks* previous,
                       std::span<const uint8_t> changed)
    : k_(k) {
  GEMREC_CHECK(k_ > 0 && changed_rows.size() % k_ == 0);
  const size_t num_changed = changed_rows.size() / k_;
  // The changed groups, ascending: with no previous, every group.
  std::vector<uint32_t> fresh_group;
  std::span<const uint32_t> previous_order;
  size_t num_groups = num_changed;
  if (previous != nullptr) {
    GEMREC_CHECK(previous->k_ == k_ &&
                 changed.size() == previous->num_groups());
    for (size_t g = 0; g < changed.size(); ++g) {
      if (changed[g] != 0) fresh_group.push_back(static_cast<uint32_t>(g));
    }
    GEMREC_CHECK(fresh_group.size() == num_changed);
    previous_order = previous->order_;
    num_groups = previous->num_groups();
  } else {
    fresh_group.resize(num_changed);
    std::iota(fresh_group.begin(), fresh_group.end(), 0u);
  }
  // The changed rows as (row sum << 32 | r), r their rank in ascending
  // group id, so sorted they are in (row sum, group) order. A row sum
  // is at most k * 2047, far below 2^32.
  std::vector<uint64_t> fresh(num_changed);
  for (size_t r = 0; r < num_changed; ++r) {
    fresh[r] = RowSum(changed_rows.data() + r * k_, k_) << 32 | r;
  }
  SortByHighWord(&fresh);
  // Merge them with previous's positions less the changed groups, read
  // in order: every other row and so its sum is unchanged.
  order_.reserve(num_groups);
  position_.resize(num_groups);
  codes_.reserve(num_groups * k_);
  block_max_.assign((num_groups + kBlockRows - 1) / kBlockRows * k_,
                    int16_t{0});
  auto f = fresh.begin();
  auto append_fresh = [&] {
    const auto r = static_cast<uint32_t>(*f++);
    Append(fresh_group[r], changed_rows.data() + size_t{r} * k_);
  };
  // Whether the next changed row sorts before clean group g's row.
  auto fresh_first = [&](uint64_t sum, uint32_t g) {
    const uint64_t fresh_sum = *f >> 32;
    return fresh_sum < sum ||
           (fresh_sum == sum && fresh_group[static_cast<uint32_t>(*f)] < g);
  };
  for (size_t p = 0; p < previous_order.size(); ++p) {
    const uint32_t g = previous_order[p];
    if (changed[g] != 0) continue;
    const int16_t* row = previous->codes_.data() + p * k_;
    const uint64_t sum = RowSum(row, k_);
    while (f != fresh.end() && fresh_first(sum, g)) append_fresh();
    Append(g, row);
  }
  while (f != fresh.end()) append_fresh();
}

int64_t CodeBlocks::MaxRowSum() const {
  if (num_groups() == 0) return 0;
  return static_cast<int64_t>(
      RowSum(codes_.data() + (num_groups() - 1) * k_, k_));
}

void CodeBlocks::Append(uint32_t g, const int16_t* row) {
  const size_t p = order_.size();
  order_.push_back(g);
  position_[g] = static_cast<uint32_t>(p);
  codes_.insert(codes_.end(), row, row + k_);
  int16_t* max_row = block_max_.data() + (p / kBlockRows) * k_;
  for (uint32_t d = 0; d < k_; ++d) {
    max_row[d] = std::max(max_row[d], row[d]);
  }
}

void CodeBlocks::Dots(QueryCodes q, bool block_max, size_t first,
                      size_t rows, int32_t* out) const {
  const int16_t* m = (block_max ? block_max_ : codes_).data();
  DotQ16Rows(q, m + first * k_, rows, k_, out);
}

QuantizedSpace::QuantizedSpace(const SpaceIndex* index,
                               const QuantizedSpace* previous,
                               std::span<const uint8_t> ranked)
    : index_(index), latent_dim_(index->latent_dim()) {
  GEMREC_CHECK(index != nullptr);
  GEMREC_CHECK(latent_dim_ <= kMaxLatentDim);
  BuildHalfParams(/*partner_half=*/false, &event_params_);
  BuildHalfParams(/*partner_half=*/true, &partner_params_);
  event_blocks_ = CodeBlocks(EncodeRows(/*partner_half=*/false, event_params_),
                             latent_dim_);
  bool params_held = false;
  if (previous != nullptr) {
    GEMREC_CHECK(previous->latent_dim_ == latent_dim_ &&
                 previous->num_partners() == num_partners() &&
                 ranked.size() == num_partners())
        << "the previous codes cover other partner groups";
    auto same = [](const std::vector<float>& a, const std::vector<float>& b) {
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
    };
    const HalfParams& old = previous->partner_params_;
    params_held = same(partner_params_.min, old.min) &&
                  same(partner_params_.scale, old.scale) &&
                  same(partner_params_.half_err, old.half_err);
  }
  // With the parameters held, every clean row encodes as before: only
  // the ranked rows are encoded and merged into the previous blocks.
  const std::span<const uint8_t> changed =
      params_held ? ranked : std::span<const uint8_t>{};
  partner_blocks_ = CodeBlocks(
      EncodeRows(/*partner_half=*/true, partner_params_, changed),
      latent_dim_, params_held ? &previous->partner_blocks_ : nullptr,
      changed);
  max_event_row_sum_ = event_blocks_.MaxRowSum();
  max_partner_row_sum_ = partner_blocks_.MaxRowSum();
}

const float* QuantizedSpace::GroupRow(bool partner_half, size_t g) const {
  const GemModel& model = index_->space().model();
  return partner_half ? model.UserVec(index_->partners()[g])
                      : model.EventVec(index_->events()[g]);
}

void QuantizedSpace::BuildHalfParams(bool partner_half, HalfParams* out) {
  const uint32_t k = latent_dim_;
  const size_t num_groups =
      partner_half ? index_->num_partners() : index_->num_events();

  out->min.assign(k, 0.0f);
  out->scale.assign(k, 0.0f);
  out->half_err.assign(k, 0.0f);
  if (num_groups == 0) return;

  std::vector<float> col_max(k, -std::numeric_limits<float>::infinity());
  std::vector<float> col_min(k, std::numeric_limits<float>::infinity());
  for (size_t g = 0; g < num_groups; ++g) {
    const float* p = GroupRow(partner_half, g);
    for (uint32_t d = 0; d < k; ++d) {
      col_min[d] = std::min(col_min[d], p[d]);
      col_max[d] = std::max(col_max[d], p[d]);
    }
  }
  for (uint32_t d = 0; d < k; ++d) {
    out->min[d] = col_min[d];
    const float range = col_max[d] - col_min[d];
    if (range < kFlatRange) {
      // Constant (or all-zero) column: no division, codes stay 0, and
      // the residual spread — at most `range` — goes straight into the
      // per-dimension bound.
      out->scale[d] = 0.0f;
      out->half_err[d] = range;
    } else {
      out->scale[d] = range / static_cast<float>(kLevels);
      out->half_err[d] = 0.5f * out->scale[d];
    }
  }
}

void QuantizedSpace::EncodeRow(const float* values, const HalfParams& params,
                               int16_t* row) const {
  for (uint32_t d = 0; d < latent_dim_; ++d) {
    long code = 0;
    if (params.scale[d] > 0.0f) {
      code = std::lround((values[d] - params.min[d]) / params.scale[d]);
      code = std::clamp(code, 0L, long{kLevels});
    }
    row[d] = static_cast<int16_t>(code);
  }
}

std::vector<int16_t> QuantizedSpace::EncodeRows(
    bool partner_half, const HalfParams& params,
    std::span<const uint8_t> only) const {
  const size_t num_groups =
      partner_half ? index_->num_partners() : index_->num_events();
  const size_t num_rows =
      num_groups - std::count(only.begin(), only.end(), uint8_t{0});
  std::vector<int16_t> codes(num_rows * latent_dim_);
  int16_t* row = codes.data();
  for (size_t g = 0; g < num_groups; ++g) {
    if (!only.empty() && only[g] == 0) continue;
    EncodeRow(GroupRow(partner_half, g), params, row);
    row += latent_dim_;
  }
  return codes;
}

QuantizedSpace::QuantizedQuery QuantizedSpace::QuantizeQuery(
    const float* query, int16_t* event_codes, int16_t* partner_codes) const {
  const uint32_t k = latent_dim_;
  QuantizedQuery out;
  out.c_weight = query[2 * k];

  for (bool partner_half : {false, true}) {
    const HalfParams& hp = partner_half ? partner_params_ : event_params_;
    const float* q = query + (partner_half ? k : 0);
    int16_t* codes = partner_half ? partner_codes : event_codes;
    const int64_t max_row_sum =
        partner_half ? max_partner_row_sum_ : max_event_row_sum_;

    float bias = 0.0f;
    float wmax = 0.0f;
    float point_err = 0.0f;
    for (uint32_t d = 0; d < k; ++d) {
      GEMREC_DCHECK(q[d] >= 0.0f);  // ReLU'd embeddings + constant 1
      bias += q[d] * hp.min[d];
      wmax = std::max(wmax, q[d] * hp.scale[d]);
      point_err += q[d] * hp.half_err[d];
    }

    float sw = 0.0f;
    float query_err = 0.0f;
    if (wmax > 0.0f) {
      sw = wmax / static_cast<float>(kLevels);
      query_err = 0.5f * sw * static_cast<float>(max_row_sum);
    }
    // Folded query codes: round(q_d * scale_d / sw), zero when the
    // whole half is flat (sw == 0; bias then carries the component).
    for (uint32_t d = 0; d < k; ++d) {
      long code = 0;
      if (sw > 0.0f) {
        code = std::lround(q[d] * hp.scale[d] / sw);
        code = std::clamp(code, 0L, long{kLevels});
      }
      codes[d] = static_cast<int16_t>(code);
    }

    if (partner_half) {
      out.partner_scale = sw;
      out.partner_bias = bias;
    } else {
      out.event_scale = sw;
      out.event_bias = bias;
    }
    out.epsilon += point_err + query_err;
  }
  return out;
}

}  // namespace gemrec::recommend
