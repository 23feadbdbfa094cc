#ifndef GEMREC_RECOMMEND_SPACE_TRANSFORM_H_
#define GEMREC_RECOMMEND_SPACE_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "ebsn/types.h"
#include "recommend/gem_model.h"

namespace gemrec::recommend {

/// One candidate event-partner pair.
struct CandidatePair {
  ebsn::EventId event = ebsn::kInvalidId;
  ebsn::UserId partner = ebsn::kInvalidId;
};

/// The paper's space transformation (§IV): every event-partner pair
/// (x, u') maps to the point
///     p_{xu'} = (x̄, ū', ū'ᵀx̄)                     ∈ R^{2K+1}
/// and a query user u maps to
///     q_u = (ū, ū, 1)                              ∈ R^{2K+1}
/// so the joint score of Eqn 8,
///     ūᵀx̄ + ū'ᵀx̄ + ūᵀū',
/// becomes the plain inner product q_uᵀ p_{xu'} — which standard
/// top-n dot-product retrieval (TA) can process.
///
/// Only the pair-specific coordinate C = ū'ᵀx̄ is stored, one fp32 per
/// pair; the x̄ and ū' halves are rows of the model's store, shared by
/// every pair of that event or partner. CopyPoint assembles the full
/// point where an exact (2K+1)-dim dot is taken. Space cost is
/// O(#pairs + (|X| + |U|) · K), not the O(#pairs · K) of stored points.
///
/// The model (a handle on its store) is kept by value; the store must
/// outlive the space and must not change while the space is in use.
class TransformedSpace {
 public:
  /// Computes C = Dot(ū', x̄) for every pair.
  TransformedSpace(const GemModel& model, std::vector<CandidatePair> pairs);
  /// Takes C precomputed by the caller: c[i] must be bitwise
  /// Dot(UserVec(pairs[i].partner), EventVec(pairs[i].event), K).
  TransformedSpace(const GemModel& model, std::vector<CandidatePair> pairs,
                   std::vector<float> c);

  uint32_t point_dim() const { return 2 * model_.dim() + 1; }  // 2K+1
  size_t num_points() const { return pairs_.size(); }
  const std::vector<CandidatePair>& pairs() const { return pairs_; }
  const CandidatePair& pair(size_t i) const { return pairs_[i]; }
  const GemModel& model() const { return model_; }

  /// The C coordinate of every pair, by pair id.
  const std::vector<float>& c_values() const { return c_; }

  /// Writes point i, (x̄, ū', C), to out[0, point_dim()).
  void CopyPoint(size_t i, float* out) const;
  /// Starts loading the rows CopyPoint(i) reads (a cache hint only).
  void PrefetchPoint(size_t i) const;

  /// Fills `out` (size 2K+1) with the query point q_u.
  void QueryVector(const GemModel& model, ebsn::UserId u,
                   std::vector<float>* out) const;

 private:
  GemModel model_;
  std::vector<CandidatePair> pairs_;
  std::vector<float> c_;
};

}  // namespace gemrec::recommend

#endif  // GEMREC_RECOMMEND_SPACE_TRANSFORM_H_
