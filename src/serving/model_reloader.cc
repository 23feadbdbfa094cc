#include "serving/model_reloader.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "embedding/serialization.h"

namespace gemrec::serving {

ModelReloader::ModelReloader(RecommendationService* service,
                             SnapshotBuilder* builder,
                             const ReloaderOptions& options)
    : service_(service), builder_(builder), options_(options) {
  GEMREC_CHECK(service_ != nullptr && builder_ != nullptr);
  options_.max_attempts = std::max(1u, options_.max_attempts);
  if (!options_.sleep_fn) {
    options_.sleep_fn = [](std::chrono::milliseconds d) {
      std::this_thread::sleep_for(d);
    };
  }
}

std::chrono::milliseconds ModelReloader::current_backoff() const {
  if (consecutive_failures_ == 0) return std::chrono::milliseconds::zero();
  // initial * 2^(failures-1), saturating at the cap (shift guarded so a
  // long outage cannot overflow the multiplier).
  const uint64_t shift =
      std::min<uint64_t>(consecutive_failures_ - 1, 20);
  const std::chrono::milliseconds scaled =
      options_.initial_backoff * (int64_t{1} << shift);
  return std::min(scaled, options_.max_backoff);
}

Status ModelReloader::ReloadFromFile(const std::string& path) {
  auto run = [&]() -> Status {
    auto store = embedding::LoadEmbeddingStore(path);
    if (!store.ok()) return store.status();
    GEMREC_RETURN_IF_ERROR(ValidateStoreShape(*store, *builder_));
    builder_->ResetStagingStore(std::move(store).value());
    service_->Publish(builder_->BuildNext());
    return Status::Ok();
  };
  const Status status = run();
  if (status.ok()) {
    consecutive_failures_ = 0;
  } else {
    ++consecutive_failures_;
    service_->RecordReloadFailure();
    GEMREC_LOG(Warning) << "model reload from " << path
                        << " failed (attempt streak "
                        << consecutive_failures_
                        << ", serving keeps previous snapshot): "
                        << status.ToString();
  }
  return status;
}

Status ModelReloader::ReloadWithRetry(const std::string& path) {
  Status status = ReloadFromFile(path);
  for (uint32_t attempt = 1; !status.ok() && attempt < options_.max_attempts;
       ++attempt) {
    options_.sleep_fn(current_backoff());
    status = ReloadFromFile(path);
  }
  return status;
}

}  // namespace gemrec::serving
