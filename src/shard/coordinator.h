#ifndef GEMREC_SHARD_COORDINATOR_H_
#define GEMREC_SHARD_COORDINATOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serving/query_backend.h"
#include "shard/shard_router.h"

namespace gemrec::shard {

/// The scatter-gather serving tier's QueryBackend: plugs a ShardRouter
/// into the unmodified NetServer front-end, so `gemrec coordinate`
/// speaks the exact same wire protocol as `gemrec serve` — clients
/// cannot tell the difference except for the partial flag when a
/// shard is degraded.
///
/// Queries fan out over the shards and come back merged (merger.h);
/// kStatsRequest answers are the coordinator's own registry (fan-out
/// counters, breaker state, per-shard RPC histograms) plus every
/// reachable shard's snapshot with a {shard="i"} suffix appended to
/// each metric name — one scrape sees the whole tier. Stats ride the
/// async StatsAsync path, so they are answered even while the
/// front-end drains.
class CoordinatorBackend : public serving::QueryBackend {
 public:
  explicit CoordinatorBackend(std::vector<ShardEndpoint> shards,
                              const RouterOptions& options = {});
  ~CoordinatorBackend() override;

  /// Connects the router to the shards (breaker-open for unreachable
  /// ones; error only when none answers) and starts its thread.
  Status Start();

  /// Stops the router: pending queries complete with kShuttingDown.
  /// Idempotent.
  void Stop();

  void SubmitAsync(const serving::QueryRequest& request,
                   ResponseCallback callback) override;
  size_t QueueDepth() const override;
  size_t InFlight() const override;
  obs::MetricsRegistry* metrics() const override;
  void StatsAsync(StatsCallback callback) override;

  size_t num_shards() const { return router_->num_shards(); }

 private:
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<ShardRouter> router_;
};

}  // namespace gemrec::shard

#endif  // GEMREC_SHARD_COORDINATOR_H_
