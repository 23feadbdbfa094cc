#include "recommend/recommender.h"

#include "common/logging.h"

namespace gemrec::recommend {

EventPartnerRecommender::EventPartnerRecommender(
    const GemModel* model, const std::vector<ebsn::EventId>& events,
    uint32_t num_users, const RecommenderOptions& options)
    : model_(model), options_(options) {
  GEMREC_CHECK(model != nullptr);
  CandidateList list = BuildCandidateList(*model, events, AllUsers(num_users),
                                          options.top_k_events_per_partner);
  space_ = std::make_unique<TransformedSpace>(*model, std::move(list.pairs),
                                              std::move(list.c));
  if (options.backend == SearchBackend::kThresholdAlgorithm) {
    ta_ = std::make_unique<TaSearch>(space_.get());
  } else {
    brute_force_ = std::make_unique<BruteForceSearch>(space_.get());
  }
}

std::vector<Recommendation> EventPartnerRecommender::Recommend(
    ebsn::UserId u, size_t n, SearchStats* stats) const {
  std::vector<float> query;
  space_->QueryVector(*model_, u, &query);
  std::vector<SearchHit> hits;
  if (ta_ != nullptr) {
    hits = ta_->Search(query, n, /*exclude_partner=*/u, stats);
  } else {
    hits = brute_force_->Search(query, n, /*exclude_partner=*/u, stats);
  }
  std::vector<Recommendation> out;
  out.reserve(hits.size());
  for (const auto& h : hits) {
    out.push_back(Recommendation{h.pair.event, h.pair.partner, h.score});
  }
  return out;
}

}  // namespace gemrec::recommend
