#include "recommend/quantized_space.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/vec_math.h"

namespace gemrec::recommend {
namespace {

/// Code ranges. 7 bits for int8 keeps DotQ8's adjacent-pair products
/// inside int16 (2 * 127^2 < 32767, no maddubs saturation); 11 bits for
/// int16 keeps a <=512-dim int32 accumulation exact (512 * 2047^2 <
/// 2^31). See the kernel contracts in common/vec_math.h.
constexpr int kInt8Levels = 127;
constexpr int kInt16Levels = 2047;

/// Dimensions whose value range is below this are treated as constant:
/// scale 0, all codes 0, and the (tiny) residual range charged to the
/// error bound directly. Also the divide-by-zero guard for all-zero or
/// constant columns.
constexpr float kFlatRange = 1e-12f;

/// Relative-error ceiling for auto-selecting int8. Deliberately tight:
/// a wider epsilon inflates the examined set and the exact re-rank, so
/// unless int8 is nearly free of error the int16 codes win overall.
constexpr float kInt8RelTol = 2e-3f;

}  // namespace

CodeBlocks::CodeBlocks(const std::vector<int8_t>& by_group, uint32_t k)
    : k_(k), int8_(true) {
  Layout(by_group, &codes8_, &block_max8_);
}

CodeBlocks::CodeBlocks(const std::vector<int16_t>& by_group, uint32_t k)
    : k_(k), int8_(false) {
  Layout(by_group, &codes16_, &block_max16_);
}

template <typename Code>
void CodeBlocks::Layout(const std::vector<Code>& by_group,
                        std::vector<Code>* codes,
                        std::vector<Code>* block_max) {
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
  codes->resize(by_group.size());
  block_max->assign(num_blocks() * k_, Code{0});
  for (size_t p = 0; p < num_groups; ++p) {
    const Code* row = by_group.data() + size_t{order_[p]} * k_;
    Code* max_row = block_max->data() + (p / kBlockRows) * k_;
    position_[order_[p]] = static_cast<uint32_t>(p);
    std::copy(row, row + k_, codes->data() + p * k_);
    for (uint32_t d = 0; d < k_; ++d) {
      max_row[d] = std::max(max_row[d], row[d]);
    }
  }
}

void CodeBlocks::Dots(QueryCodes q, bool block_max, size_t first,
                      size_t rows, int32_t* out) const {
  if (int8_) {
    const int8_t* m = (block_max ? block_max8_ : codes8_).data();
    DotQ8Rows(q.codes8, m + first * k_, rows, k_, out);
  } else {
    const int16_t* m = (block_max ? block_max16_ : codes16_).data();
    DotQ16Rows(q.codes16, m + first * k_, rows, k_, out);
  }
}

QuantizedSpace::QuantizedSpace(const SpaceIndex* index)
    : QuantizedSpace(index, Options{}) {}

QuantizedSpace::QuantizedSpace(const SpaceIndex* index, Options options)
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

  // Estimate the int8 relative error against a worst-case reference
  // query. Queries are (u, u, 1) with u a ReLU'd user embedding, and
  // partner rows are the same embeddings for other users, so the
  // per-dimension partner column maxima stand in for the largest query
  // a deployment can produce.
  BuildHalfParams(/*partner_half=*/false, kInt8Levels, &event_params_);
  BuildHalfParams(/*partner_half=*/true, kInt8Levels, &partner_params_);
  const uint32_t k = latent_dim_;
  std::vector<float> qref(k, 0.0f);
  for (size_t u = 0; u < index_->num_partners(); ++u) {
    const float* p = GroupRow(/*partner_half=*/true, u);
    for (uint32_t d = 0; d < k; ++d) {
      qref[d] = std::max(qref[d], p[d]);
    }
  }
  float err8 = 0.0f;
  float score_ref = 0.0f;
  for (bool partner_half : {false, true}) {
    const HalfParams& hp = partner_half ? partner_params_ : event_params_;
    float wmax = 0.0f;
    for (uint32_t d = 0; d < k; ++d) {
      err8 += qref[d] * hp.half_err[d];
      wmax = std::max(wmax, qref[d] * hp.scale[d]);
      // Column max = min + levels * scale for non-flat dims.
      score_ref +=
          qref[d] * (hp.min[d] + static_cast<float>(kInt8Levels) *
                                     hp.scale[d]);
    }
    // Row code sums are bounded by k * levels; the conservative bound
    // (instead of the encoded rows' true max) further biases toward
    // int16, which is the intent.
    err8 += 0.5f * (wmax / static_cast<float>(kInt8Levels)) *
            static_cast<float>(k) * static_cast<float>(kInt8Levels);
  }
  float c_abs_max = 0.0f;
  for (const float v : c) c_abs_max = std::max(c_abs_max, std::abs(v));
  score_ref += c_abs_max;
  rel_err8_estimate_ = score_ref > 0.0f ? err8 / score_ref : 0.0f;

  switch (options.force) {
    case Options::Force::kInt8:
      precision_ = Precision::kInt8;
      break;
    case Options::Force::kInt16:
      precision_ = Precision::kInt16;
      break;
    case Options::Force::kAuto:
      precision_ = rel_err8_estimate_ <= kInt8RelTol ? Precision::kInt8
                                                     : Precision::kInt16;
      break;
  }

  if (precision_ == Precision::kInt8) {
    max_event_row_sum_ = EncodeRows<int8_t>(/*partner_half=*/false,
                                            event_params_, &event_blocks_);
    max_partner_row_sum_ = EncodeRows<int8_t>(
        /*partner_half=*/true, partner_params_, &partner_blocks_);
  } else {
    BuildHalfParams(/*partner_half=*/false, kInt16Levels, &event_params_);
    BuildHalfParams(/*partner_half=*/true, kInt16Levels, &partner_params_);
    max_event_row_sum_ = EncodeRows<int16_t>(/*partner_half=*/false,
                                             event_params_, &event_blocks_);
    max_partner_row_sum_ = EncodeRows<int16_t>(
        /*partner_half=*/true, partner_params_, &partner_blocks_);
  }
}

const float* QuantizedSpace::GroupRow(bool partner_half, size_t g) const {
  const GemModel& model = index_->space().model();
  return partner_half ? model.UserVec(index_->partners()[g])
                      : model.EventVec(index_->events()[g]);
}

void QuantizedSpace::BuildHalfParams(bool partner_half, int levels,
                                     HalfParams* out) {
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
      out->scale[d] = range / static_cast<float>(levels);
      out->half_err[d] = 0.5f * out->scale[d];
    }
  }
}

template <typename Code>
int64_t QuantizedSpace::EncodeRows(bool partner_half,
                                   const HalfParams& params,
                                   CodeBlocks* blocks) {
  const uint32_t k = latent_dim_;
  const size_t num_groups =
      partner_half ? index_->num_partners() : index_->num_events();
  const long levels =
      sizeof(Code) == 1 ? kInt8Levels : kInt16Levels;

  std::vector<Code> codes(num_groups * k, Code{0});
  int64_t max_row_sum = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const float* p = GroupRow(partner_half, g);
    Code* row = codes.data() + g * k;
    int64_t row_sum = 0;
    for (uint32_t d = 0; d < k; ++d) {
      long code = 0;
      if (params.scale[d] > 0.0f) {
        code = std::lround((p[d] - params.min[d]) / params.scale[d]);
        code = std::clamp(code, 0L, levels);
      }
      row[d] = static_cast<Code>(code);
      row_sum += code;
    }
    max_row_sum = std::max(max_row_sum, row_sum);
  }
  *blocks = CodeBlocks(codes, k);
  return max_row_sum;
}

QuantizedSpace::QuantizedQuery QuantizedSpace::QuantizeQuery(
    const float* query, uint8_t* event_codes8, uint8_t* partner_codes8,
    int16_t* event_codes16, int16_t* partner_codes16) const {
  const uint32_t k = latent_dim_;
  QuantizedQuery out;
  out.c_weight = query[2 * k];

  const long levels =
      precision_ == Precision::kInt8 ? kInt8Levels : kInt16Levels;
  for (bool partner_half : {false, true}) {
    const HalfParams& hp = partner_half ? partner_params_ : event_params_;
    const float* q = query + (partner_half ? k : 0);
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
      sw = wmax / static_cast<float>(levels);
      query_err = 0.5f * sw * static_cast<float>(max_row_sum);
    }
    // Folded query codes: round(q_d * scale_d / sw), zero when the
    // whole half is flat (sw == 0; bias then carries the component).
    for (uint32_t d = 0; d < k; ++d) {
      long code = 0;
      if (sw > 0.0f) {
        code = std::lround(q[d] * hp.scale[d] / sw);
        code = std::clamp(code, 0L, levels);
      }
      if (precision_ == Precision::kInt8) {
        (partner_half ? partner_codes8 : event_codes8)[d] =
            static_cast<uint8_t>(code);
      } else {
        (partner_half ? partner_codes16 : event_codes16)[d] =
            static_cast<int16_t>(code);
      }
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
