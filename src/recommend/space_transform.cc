#include "recommend/space_transform.h"

#include <cstring>

#include "common/logging.h"
#include "common/vec_math.h"

namespace gemrec::recommend {

TransformedSpace::TransformedSpace(const GemModel& model,
                                   std::vector<CandidatePair> pairs)
    : model_(model), pairs_(std::move(pairs)) {
  const uint32_t k = model_.dim();
  c_.resize(pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    c_[i] = Dot(model_.UserVec(pairs_[i].partner),
                model_.EventVec(pairs_[i].event), k);
  }
}

TransformedSpace::TransformedSpace(const GemModel& model,
                                   std::vector<CandidatePair> pairs,
                                   std::vector<float> c)
    : model_(model), pairs_(std::move(pairs)), c_(std::move(c)) {
  GEMREC_CHECK(c_.size() == pairs_.size());
}

void TransformedSpace::CopyPoint(size_t i, float* out) const {
  const uint32_t k = model_.dim();
  std::memcpy(out, model_.EventVec(pairs_[i].event), k * sizeof(float));
  std::memcpy(out + k, model_.UserVec(pairs_[i].partner), k * sizeof(float));
  out[2 * k] = c_[i];
}

void TransformedSpace::PrefetchPoint(size_t i) const {
  constexpr size_t kLine = 64;
  const size_t bytes = model_.dim() * sizeof(float);
  const auto* x = reinterpret_cast<const char*>(
      model_.EventVec(pairs_[i].event));
  const auto* u = reinterpret_cast<const char*>(
      model_.UserVec(pairs_[i].partner));
  for (size_t b = 0; b < bytes; b += kLine) {
    __builtin_prefetch(x + b);
    __builtin_prefetch(u + b);
  }
}

void TransformedSpace::QueryVector(const GemModel& model, ebsn::UserId u,
                                   std::vector<float>* out) const {
  const uint32_t k = model.dim();
  out->resize(point_dim());
  const float* uv = model.UserVec(u);
  std::memcpy(out->data(), uv, k * sizeof(float));
  std::memcpy(out->data() + k, uv, k * sizeof(float));
  (*out)[2 * k] = 1.0f;
}

}  // namespace gemrec::recommend
