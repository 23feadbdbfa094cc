#include "recommend/quantized_space.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

}  // namespace

CodeBlocks::CodeBlocks(const std::vector<int16_t>& by_group, uint32_t k)
    : k_(k) {
  GEMREC_CHECK(k_ > 0 && by_group.size() % k_ == 0);
  const size_t num_groups = by_group.size() / k_;
  // (row sum << 32 | group), sorted: ascending sums, ties by group id.
  // A row sum is at most k * 2047, far below 2^32.
  std::vector<uint64_t> keys(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    uint64_t sum = 0;
    for (uint32_t d = 0; d < k_; ++d) {
      sum += static_cast<uint64_t>(by_group[g * k_ + d]);
    }
    keys[g] = sum << 32 | g;
  }
  SortByHighWord(&keys);
  order_.resize(num_groups);
  for (size_t p = 0; p < num_groups; ++p) {
    order_[p] = static_cast<uint32_t>(keys[p]);
  }
  position_.resize(num_groups);
  codes_.resize(by_group.size());
  block_max_.assign(num_blocks() * k_, int16_t{0});
  for (size_t p = 0; p < num_groups; ++p) {
    const int16_t* row = by_group.data() + size_t{order_[p]} * k_;
    int16_t* max_row = block_max_.data() + (p / kBlockRows) * k_;
    position_[order_[p]] = static_cast<uint32_t>(p);
    std::copy(row, row + k_, codes_.data() + p * k_);
    for (uint32_t d = 0; d < k_; ++d) {
      max_row[d] = std::max(max_row[d], row[d]);
    }
  }
}

void CodeBlocks::Dots(QueryCodes q, bool block_max, size_t first,
                      size_t rows, int32_t* out) const {
  const int16_t* m = (block_max ? block_max_ : codes_).data();
  DotQ16Rows(q, m + first * k_, rows, k_, out);
}

QuantizedSpace::QuantizedSpace(const SpaceIndex* index)
    : index_(index), latent_dim_(index->latent_dim()) {
  GEMREC_CHECK(index != nullptr);
  GEMREC_CHECK(latent_dim_ <= kMaxLatentDim);
  const std::vector<float>& c = c_values();
  const size_t num_points = c.size();

  // C stays exact: the space's per-pair fp32, plus a copy in
  // C-descending rank order so the TA's C-list walk is a sequential
  // read.
  c_sorted_values_.resize(num_points);
  const std::vector<uint32_t>& c_sorted = index_->c_sorted();
  for (size_t r = 0; r < num_points; ++r) {
    c_sorted_values_[r] = c[c_sorted[r]];
  }

  BuildHalfParams(/*partner_half=*/false, &event_params_);
  BuildHalfParams(/*partner_half=*/true, &partner_params_);
  max_event_row_sum_ =
      EncodeRows(/*partner_half=*/false, event_params_, &event_blocks_);
  max_partner_row_sum_ =
      EncodeRows(/*partner_half=*/true, partner_params_, &partner_blocks_);
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

int64_t QuantizedSpace::EncodeRows(bool partner_half,
                                   const HalfParams& params,
                                   CodeBlocks* blocks) {
  const uint32_t k = latent_dim_;
  const size_t num_groups =
      partner_half ? index_->num_partners() : index_->num_events();

  std::vector<int16_t> codes(num_groups * k, int16_t{0});
  int64_t max_row_sum = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const float* p = GroupRow(partner_half, g);
    int16_t* row = codes.data() + g * k;
    int64_t row_sum = 0;
    for (uint32_t d = 0; d < k; ++d) {
      long code = 0;
      if (params.scale[d] > 0.0f) {
        code = std::lround((p[d] - params.min[d]) / params.scale[d]);
        code = std::clamp(code, 0L, long{kLevels});
      }
      row[d] = static_cast<int16_t>(code);
      row_sum += code;
    }
    max_row_sum = std::max(max_row_sum, row_sum);
  }
  *blocks = CodeBlocks(codes, k);
  return max_row_sum;
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
