#ifndef GEMREC_RECOMMEND_QUANTIZED_SPACE_H_
#define GEMREC_RECOMMEND_QUANTIZED_SPACE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "recommend/space_index.h"

namespace gemrec::recommend {

/// One query half's codes (K of them).
using QueryCodes = const int16_t*;

/// One group list's code rows (the event half or the partner half),
/// stored once, in block order. The groups are sorted by the sum of
/// their row's codes, ascending, ties by group id, and the positions
/// are cut into blocks of kBlockRows rows (the last block may be
/// shorter). Rows of similar sum share a block, which keeps each
/// block's per-dimension code max close to its rows. Query codes and
/// row codes are both nonnegative, so for every row of block b
///     dot(q, row) <= Σ_d q_d · blockmax_d   (the block's bound),
/// exactly, in int32: a block-max row obeys the same code-range
/// contract as a code row (common/vec_math.h, K <= 512).
///
/// Immutable after construction.
class CodeBlocks {
 public:
  static constexpr size_t kBlockRows = 64;

  CodeBlocks() = default;
  /// Lays out `changed_rows` (k codes each) in block order. With no
  /// `previous`, row g is group g's. With a `previous`, they are the
  /// rows of the groups g where changed[g] != 0, in ascending group
  /// order, and every other group keeps previous's row. The changed
  /// rows are sorted and merged into previous's block order, whose
  /// other rows are read in order: with no previous, that is the
  /// layout of every row. A merge is bitwise the layout of the new
  /// rows with no previous; `previous` need only live through the call.
  CodeBlocks(const std::vector<int16_t>& changed_rows, uint32_t k,
             const CodeBlocks* previous = nullptr,
             std::span<const uint8_t> changed = {});

  size_t num_groups() const { return order_.size(); }
  size_t num_blocks() const {
    return (num_groups() + kBlockRows - 1) / kBlockRows;
  }

  /// Position -> group: the block order.
  const std::vector<uint32_t>& order() const { return order_; }
  /// Row codes by position, and block-max rows by block (k codes each).
  const std::vector<int16_t>& codes() const { return codes_; }
  const std::vector<int16_t>& block_max() const { return block_max_; }

  /// The largest sum of a row's codes (0 without rows): the last
  /// row's, as the positions ascend by row sum.
  int64_t MaxRowSum() const;

  /// Group g's row.
  const int16_t* Codes(size_t g) const {
    return codes_.data() + size_t{position_[g]} * k_;
  }

  /// out[b] = the bound of block b, for every block: one rows call over
  /// the block-max rows.
  void BlockBounds(QueryCodes q, int32_t* out) const {
    Dots(q, /*block_max=*/true, 0, num_blocks(), out);
  }
  /// out[r] = the dot of the r-th row of `block` (group
  /// order()[block * kBlockRows + r]): one rows call. Returns the row
  /// count.
  size_t BlockDots(QueryCodes q, size_t block, int32_t* out) const {
    const size_t first = block * kBlockRows;
    const size_t rows = std::min(kBlockRows, num_groups() - first);
    Dots(q, /*block_max=*/false, first, rows, out);
    return rows;
  }
  /// The dot of group g's row.
  int32_t GroupDot(QueryCodes q, size_t g) const {
    int32_t dot = 0;
    Dots(q, /*block_max=*/false, position_[g], 1, &dot);
    return dot;
  }

 private:
  /// out[r] = dot(q, row first + r) over `rows` rows of the code matrix
  /// or of the block-max matrix.
  void Dots(QueryCodes q, bool block_max, size_t first, size_t rows,
            int32_t* out) const;
  /// Places group g's row at the next position.
  void Append(uint32_t g, const int16_t* row);

  uint32_t k_ = 0;
  std::vector<uint32_t> order_;     // position -> group
  std::vector<uint32_t> position_;  // group -> position
  std::vector<int16_t> codes_, block_max_;
};

/// Quantized companion of a TransformedSpace, built once per model
/// snapshot. An exact walk reads 2K+1 fp32 coordinates per examined
/// pair. This structure replaces that traffic with compact arrays
/// sized to the *group* structure, not the pair count:
///
///   * event codes:   num_events   x K integer codes (each event
///     group's row x̄, the first K coordinates of its points),
///   * partner codes: num_partners x K integer codes (each partner
///     group's row ū', coordinates [K, 2K)),
///     each list stored once as CodeBlocks (block order plus per-block
///     code maxes, which bound a query's dots block by block),
///   * C values:      the space's one fp32 per pair, indexed by pair id
///     for scoring (the index keeps a copy in C order for the walk).
///
/// Codes use per-dimension asymmetric affine quantization
///     code_d = round((v_d - min_d) / scale_d)
/// into [0, 2047], stored as int16. The 11-bit range is deliberate: it
/// keeps DotQ16's int32 accumulation exact for K <= 512 (see the
/// contract in common/vec_math.h). The C coordinate stays fp32: it is a
/// single value per pair, so compaction — not bit-width — is the win,
/// and keeping it exact removes one term from the error bound.
///
/// A query q folds into the code domain as w_d = q_d * scale_d >= 0,
/// itself quantized with a single per-half scale; the approximate
/// component is then an integer dot product plus a per-query bias
/// (Sum q_d * min_d). QuantizeQuery returns, alongside the codes, a
/// rigorous one-sided bound `epsilon` on |approx - exact| for any pair,
/// which BatchTaSearch uses to widen the TA stopping threshold so that
/// no true top-n candidate is ever pruned (DESIGN.md section 13).
///
/// Immutable after construction; `index` must outlive this object.
class QuantizedSpace {
 public:
  /// Widest latent dimension the codes support: 11-bit codes keep an
  /// int32 dot of K terms exact only while K * 2047^2 < 2^31 (see the
  /// DotQ16 contract in common/vec_math.h). Serving checks a store
  /// against it before building a snapshot.
  static constexpr uint32_t kMaxLatentDim = 512;

  /// Per-query constants produced by QuantizeQuery.
  struct QuantizedQuery {
    /// Scale of the folded event-/partner-half query codes (sw): the
    /// approximate component is bias + sw * IntegerDot(codes, codes).
    float event_scale = 0.0f;
    float partner_scale = 0.0f;
    /// Sum_d q_d * min_d over the half's dimensions.
    float event_bias = 0.0f;
    float partner_bias = 0.0f;
    /// q[2K]: the exact fp32 weight of the C coordinate.
    float c_weight = 0.0f;
    /// One-sided bound: |approx_score - exact_score| <= epsilon for
    /// every pair in the space.
    float epsilon = 0.0f;
  };

  /// Quantizes `index`'s rows. With a `previous`, `index` is built
  /// from previous's index with the same `ranked` (SpaceIndex):
  /// partner group g is slice g, and its row is unchanged unless
  /// ranked[g] != 0. The event half is always encoded; so are both
  /// halves' parameters. When the partner-half parameters are bitwise
  /// previous's, only the ranked partner rows are encoded and merged
  /// into previous's code blocks; otherwise, as with no previous,
  /// every row is. A delta build is bitwise the codes with no
  /// previous; `previous` need only live through the call.
  explicit QuantizedSpace(const SpaceIndex* index,
                          const QuantizedSpace* previous = nullptr,
                          std::span<const uint8_t> ranked = {});

  const SpaceIndex& index() const { return *index_; }
  uint32_t latent_dim() const { return latent_dim_; }
  size_t num_events() const { return index_->num_events(); }
  size_t num_partners() const { return index_->num_partners(); }

  /// Quantizes a (2K+1)-dim nonnegative fp32 query. Each output buffer
  /// must hold latent_dim() entries. Event codes pair with EventCodes,
  /// partner codes with PartnerCodes.
  QuantizedQuery QuantizeQuery(const float* query, int16_t* event_codes,
                               int16_t* partner_codes) const;

  /// The two group lists' codes, in block order.
  const CodeBlocks& event_blocks() const { return event_blocks_; }
  const CodeBlocks& partner_blocks() const { return partner_blocks_; }

  /// Row of event group e / partner group u (K codes). Rows are stored
  /// in block order, so consecutive groups' rows are not adjacent.
  const int16_t* EventCodes(size_t e) const {
    return event_blocks_.Codes(e);
  }
  const int16_t* PartnerCodes(size_t u) const {
    return partner_blocks_.Codes(u);
  }

  /// Exact fp32 C coordinate by pair id (the space's own array).
  const std::vector<float>& c_values() const {
    return index_->space().c_values();
  }

  /// Max over group rows of the sum of that row's codes; the query-
  /// rounding half of the epsilon bound (see QuantizeQuery).
  int64_t max_event_code_row_sum() const { return max_event_row_sum_; }
  int64_t max_partner_code_row_sum() const { return max_partner_row_sum_; }

 private:
  struct HalfParams {
    std::vector<float> min;       // K per-dimension zero points
    std::vector<float> scale;     // K per-dimension scales (0 if flat)
    std::vector<float> half_err;  // per-dim one-sided rounding bound
  };

  /// Row of event group g (the event half) or partner group g.
  const float* GroupRow(bool partner_half, size_t g) const;
  void BuildHalfParams(bool partner_half, HalfParams* out);
  /// Encodes one group row's K values under `params`.
  void EncodeRow(const float* values, const HalfParams& params,
                 int16_t* row) const;
  /// One half's rows by group, encoded under `params`: every group's,
  /// or with a nonempty `only`, those of the groups g where
  /// only[g] != 0.
  std::vector<int16_t> EncodeRows(bool partner_half, const HalfParams& params,
                                  std::span<const uint8_t> only = {}) const;

  const SpaceIndex* index_;
  uint32_t latent_dim_;

  HalfParams event_params_;
  HalfParams partner_params_;
  CodeBlocks event_blocks_;
  CodeBlocks partner_blocks_;
  int64_t max_event_row_sum_ = 0;
  int64_t max_partner_row_sum_ = 0;
};

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_QUANTIZED_SPACE_H_
