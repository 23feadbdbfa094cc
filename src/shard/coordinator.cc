#include "shard/coordinator.h"

#include <string>
#include <utility>

namespace gemrec::shard {

CoordinatorBackend::CoordinatorBackend(std::vector<ShardEndpoint> shards,
                                       const RouterOptions& options)
    : registry_(std::make_unique<obs::MetricsRegistry>()),
      router_(std::make_unique<ShardRouter>(std::move(shards),
                                            options,
                                            registry_.get())) {}

CoordinatorBackend::~CoordinatorBackend() { Stop(); }

Status CoordinatorBackend::Start() { return router_->Start(); }

void CoordinatorBackend::Stop() { router_->Stop(); }

void CoordinatorBackend::SubmitAsync(const serving::QueryRequest& request,
                                     ResponseCallback callback) {
  router_->SubmitQuery(request, std::move(callback));
}

size_t CoordinatorBackend::QueueDepth() const {
  return router_->QueueDepth();
}

size_t CoordinatorBackend::InFlight() const { return router_->InFlight(); }

obs::MetricsRegistry* CoordinatorBackend::metrics() const {
  return registry_.get();
}

void CoordinatorBackend::StatsAsync(StatsCallback callback) {
  // Own counters first (registration order preserved), then each
  // reachable shard's rollup with a {shard="i"} label suffix — merged
  // into ONE snapshot so the existing kStatsResponse codec (which
  // carries arbitrary metric names) ships the whole tier in one frame.
  obs::MetricsSnapshot own = registry_->Snapshot();
  router_->SubmitStats(
      [own = std::move(own), callback = std::move(callback)](
          std::vector<std::optional<obs::MetricsSnapshot>> shards) mutable {
        obs::MetricsSnapshot merged = std::move(own);
        for (size_t i = 0; i < shards.size(); ++i) {
          if (!shards[i].has_value()) continue;
          const std::string suffix =
              "{shard=\"" + std::to_string(i) + "\"}";
          for (obs::MetricValue& metric : shards[i]->metrics) {
            metric.name += suffix;
            merged.metrics.push_back(std::move(metric));
          }
        }
        callback(std::move(merged));
      });
}

}  // namespace gemrec::shard
