#include "shard/merger.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gemrec::shard {

MergeResult MergeTopK(const std::vector<ShardAnswer>& answers, size_t n) {
  MergeResult result;
  constexpr float kInf = std::numeric_limits<float>::infinity();

  // A typed refusal answers the whole query. A bad request is bad for
  // every slice, so it outranks a shard that merely shed load.
  for (const ShardAnswer& answer : answers) {
    if (answer.code == serving::ResponseCode::kBadRequest) {
      result.code = answer.code;
      return result;
    }
    if (answer.code == serving::ResponseCode::kOverloaded) {
      result.code = answer.code;
    }
  }
  if (result.code != serving::ResponseCode::kOk) return result;

  // max over replying shards' unreturned bounds; -inf when every
  // replying shard exhausted its slice.
  float max_shard_bound = -kInf;
  size_t collected = 0;
  for (const ShardAnswer& answer : answers) {
    if (!answer.ok) {
      result.partial = true;
      continue;
    }
    result.epoch = std::max(result.epoch, answer.epoch);
    collected += answer.items.size();
    max_shard_bound = std::max(max_shard_bound, answer.ta_bound);
    result.items.insert(result.items.end(), answer.items.begin(),
                        answer.items.end());
  }

  // Deterministic global order: score descending, ties by (event,
  // partner) ascending — so N-shard merges reproduce the
  // single-instance ranking bit-for-bit whenever scores are distinct,
  // and reproducibly otherwise.
  std::sort(result.items.begin(), result.items.end(),
            [](const recommend::Recommendation& a,
               const recommend::Recommendation& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.event != b.event) return a.event < b.event;
              return a.partner < b.partner;
            });
  if (result.items.size() > n) result.items.resize(n);

  // Everything absent from `items` is either unreturned by its owning
  // shard (<= that shard's bound) or was dropped here (<= the merged
  // k-th score, which only matters when the merge actually dropped
  // something).
  const bool dropped = collected > result.items.size();
  const float kth =
      result.items.size() == n && n > 0 ? result.items.back().score : -kInf;
  if (result.partial) {
    result.ta_bound = kInf;
    return result;
  }
  result.ta_bound = std::max(max_shard_bound, dropped ? kth : -kInf);

  // Completeness certificate for full replies. The threshold-merge
  // inequality kth >= max_shard_bound holds by construction (each
  // shard's bound is at most its own n-th returned score); assert it
  // rather than silently trusting the algebra. Short merges (fewer
  // than n items total) are complete trivially — nothing was left
  // anywhere.
  if (result.items.size() < n) {
    result.certified = true;
  } else {
    GEMREC_DCHECK(!(kth < max_shard_bound))
        << "threshold-merge soundness violated: merged k-th " << kth
        << " < shard bound " << max_shard_bound;
    result.certified = !(kth < max_shard_bound);
  }
  return result;
}

}  // namespace gemrec::shard
