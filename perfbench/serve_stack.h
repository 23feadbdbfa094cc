#ifndef GEMREC_PERFBENCH_SERVE_STACK_H_
#define GEMREC_PERFBENCH_SERVE_STACK_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "ebsn/types.h"
#include "net/server.h"
#include "serving/ingestion_queue.h"
#include "serving/query_backend.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"
#include "shard/coordinator.h"

namespace gemrec::perfbench {

/// The benchmark's one city: a synthetic Beijing and a GEM model
/// trained on it, saved as a GEMREC02 file. Built before any timed
/// region. Fixed rather than drawn from the workload seed: the seed
/// drives the traffic, and a city per seed moved the cold-mix tail
/// and capacity by more than the metrics' bounds.
struct City {
  std::string model_path;
  uint32_t num_users = 0;
  uint32_t num_events = 0;
  /// The recommendable pool: the split's cold-start test events.
  std::vector<ebsn::EventId> pool;
};

/// Generates the city, or reloads it from `cache_dir`. The caller names
/// `cache_dir` after the sources that produce the city (run.py digests
/// src/ and this harness's serve_stack.cc), so a saved one is never stale.
Result<City> PrepareCity(const std::string& cache_dir);

/// Order-insensitive identity of a request, shared by the client side
/// and the timing decorator to pair their records.
uint64_t RequestKey(const serving::QueryRequest& request);

/// serving::QueryBackend decorator that times each request from
/// SubmitAsync to its completion callback and records which threads
/// made those calls. Sits between a NetServer and its backend.
class TimingBackend final : public serving::QueryBackend {
 public:
  struct Span {
    uint64_t key = 0;
    int64_t submit_ns = 0;
    int64_t done_ns = 0;
  };

  explicit TimingBackend(serving::QueryBackend* inner) : inner_(inner) {}

  void SubmitAsync(const serving::QueryRequest& request,
                   ResponseCallback callback) override;
  size_t QueueDepth() const override { return inner_->QueueDepth(); }
  size_t InFlight() const override { return inner_->InFlight(); }
  obs::MetricsRegistry* metrics() const override { return inner_->metrics(); }
  void StatsAsync(StatsCallback callback) override {
    inner_->StatsAsync(std::move(callback));
  }

  /// Spans completed since the last call.
  std::vector<Span> TakeSpans();
  /// Threads that called SubmitAsync (the front-end's reactors).
  std::set<pid_t> submit_threads() const;
  /// Threads that fired completion callbacks (workers, router).
  std::set<pid_t> callback_threads() const;

 private:
  serving::QueryBackend* inner_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::set<pid_t> submit_threads_;
  std::set<pid_t> callback_threads_;
};

/// Which serve stack a workload boots.
enum class Topology {
  kSingle,   // NetServer -> RecommendationService
  kWrite,    // kSingle plus the journaled IngestionQueue
  kSharded,  // NetServer -> CoordinatorBackend -> 2 shard stacks
};

struct StackOptions {
  Topology topology = Topology::kSingle;
  /// Insert TimingBackend decorators (the traced run).
  bool traced = false;
  /// Fresh directory for the write path's journal and checkpoints.
  std::string ingest_dir;
};

/// One real serve stack booted in-process from the saved model, with
/// every listener on an ephemeral 127.0.0.1 port. Sizing leaves room
/// for the load generator on a 4-core host: one reactor per NetServer,
/// two workers (one per shard when sharded), result cache 4000 entries.
class ServeStack {
 public:
  /// Model file -> store -> snapshot build -> publish -> listeners up.
  static Result<std::unique_ptr<ServeStack>> Boot(const City& city,
                                                  const StackOptions& options);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  uint16_t port() const { return front_server_->port(); }
  /// Service 0 is the only one unless sharded (one per shard).
  const std::vector<std::unique_ptr<serving::RecommendationService>>&
  services() const {
    return services_;
  }
  serving::IngestionQueue* ingest() const { return ingest_.get(); }

  /// Decorator in front of the whole backend (service or coordinator);
  /// null unless traced.
  TimingBackend* front_timing() const { return front_timing_.get(); }
  /// Decorators in front of each shard's service (sharded + traced).
  const std::vector<std::unique_ptr<TimingBackend>>& shard_timing() const {
    return shard_timing_;
  }
  /// Threads IngestionQueue::Start spawned (the ingest thread).
  const std::set<pid_t>& ingest_threads() const { return ingest_threads_; }

 private:
  explicit ServeStack(const StackOptions& options) : options_(options) {}
  Status BootSingle(const City& city);
  Status BootSharded(const City& city);

  StackOptions options_;
  std::vector<std::unique_ptr<serving::SnapshotBuilder>> builders_;
  std::vector<std::unique_ptr<serving::RecommendationService>> services_;
  std::unique_ptr<serving::IngestionQueue> ingest_;
  std::set<pid_t> ingest_threads_;
  std::vector<std::unique_ptr<TimingBackend>> shard_timing_;
  std::vector<std::unique_ptr<net::NetServer>> shard_servers_;
  std::unique_ptr<shard::CoordinatorBackend> coordinator_;
  std::unique_ptr<TimingBackend> front_timing_;
  std::unique_ptr<net::NetServer> front_server_;
};

}  // namespace gemrec::perfbench

#endif  // GEMREC_PERFBENCH_SERVE_STACK_H_
