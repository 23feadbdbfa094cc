#include "serve_stack.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/rng.h"
#include "ebsn/split.h"
#include "ebsn/synthetic.h"
#include "embedding/serialization.h"
#include "embedding/trainer.h"
#include "graph/graph_builder.h"
#include "loadgen.h"
#include "proc_stats.h"

namespace gemrec::perfbench {
namespace {

/// Beijing at 4x the bench scale: 12k users, 6k events of which 1.2k
/// are cold-start test events, 240k candidate pairs at top-k 20.
constexpr double kCityScale = 4.0;
constexpr uint32_t kDim = 32;
/// Single-threaded so the trained model is the same on every host
/// (hogwild threads would race).
constexpr uint64_t kTrainSamples = 500000;

pid_t ThisThread() {
  thread_local const pid_t tid = CurrentTid();
  return tid;
}

bool ReadCityMeta(const std::string& path, City* city) {
  std::ifstream in(path);
  size_t pool_size = 0;
  if (!(in >> city->num_users >> city->num_events >> pool_size)) return false;
  city->pool.resize(pool_size);
  for (ebsn::EventId& x : city->pool) {
    if (!(in >> x)) return false;
  }
  return true;
}

Status WriteCityMeta(const std::string& path, const City& city) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << city.num_users << ' ' << city.num_events << ' '
        << city.pool.size() << '\n';
    for (const ebsn::EventId x : city.pool) out << x << '\n';
    if (!out) return Status::IoError("write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp);
  }
  return Status::Ok();
}

}  // namespace

Result<City> PrepareCity(const std::string& cache_dir) {
  City city;
  city.model_path = cache_dir + "/beijing-x4-k32.gemrec";
  // The sidecar is renamed into place after the model, so its presence
  // means both files are complete.
  const std::string meta_path = city.model_path + ".pool";
  if (ReadCityMeta(meta_path, &city)) return city;

  ebsn::SyntheticConfig config = ebsn::SyntheticConfig::Beijing(kCityScale);
  SplitMix64 mix(config.seed);
  const ebsn::SyntheticData data = ebsn::GenerateSynthetic(config);
  const ebsn::ChronologicalSplit split(data.dataset);
  GEMREC_ASSIGN_OR_RETURN(
      graph::EbsnGraphs graphs,
      graph::BuildEbsnGraphs(data.dataset, split, graph::GraphBuilderOptions{}));
  embedding::TrainerOptions options = embedding::TrainerOptions::GemA();
  options.dim = kDim;
  options.num_samples = kTrainSamples;
  options.num_threads = 1;
  options.seed = mix.Next();
  embedding::JointTrainer trainer(&graphs, options);
  trainer.Train();
  GEMREC_RETURN_IF_ERROR(
      embedding::SaveEmbeddingStore(trainer.store(), city.model_path));

  city.num_users = data.dataset.num_users();
  city.num_events = data.dataset.num_events();
  city.pool = split.test_events();
  GEMREC_RETURN_IF_ERROR(WriteCityMeta(meta_path, city));
  return city;
}

uint64_t RequestKey(const serving::QueryRequest& request) {
  SplitMix64 mix((uint64_t{request.user} << 24) ^
                 (uint64_t{request.n} << 8) ^
                 (static_cast<uint64_t>(request.kind) << 4) ^
                 static_cast<uint64_t>(request.aggregator));
  uint64_t key = mix.Next();
  for (const ebsn::UserId member : request.group) {
    key = SplitMix64(key ^ member).Next();
  }
  return key;
}

void TimingBackend::SubmitAsync(const serving::QueryRequest& request,
                                ResponseCallback callback) {
  const int64_t submit_ns = NowNs();
  const pid_t submitter = ThisThread();
  inner_->SubmitAsync(
      request, [this, submit_ns, submitter, key = RequestKey(request),
                callback = std::move(callback)](
                   serving::QueryResponse response) {
        const int64_t done_ns = NowNs();
        {
          std::lock_guard<std::mutex> lock(mu_);
          spans_.push_back(Span{key, submit_ns, done_ns});
          submit_threads_.insert(submitter);
          callback_threads_.insert(ThisThread());
        }
        callback(std::move(response));
      });
}

std::vector<TimingBackend::Span> TimingBackend::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

std::set<pid_t> TimingBackend::submit_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submit_threads_;
}

std::set<pid_t> TimingBackend::callback_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return callback_threads_;
}

Result<std::unique_ptr<ServeStack>> ServeStack::Boot(
    const City& city, const StackOptions& options) {
  std::unique_ptr<ServeStack> stack(new ServeStack(options));
  GEMREC_RETURN_IF_ERROR(options.topology == Topology::kSharded
                             ? stack->BootSharded(city)
                             : stack->BootSingle(city));
  return stack;
}

// Members are declared in dependency order, so the default member-wise
// teardown stops the front listener first, then the coordinator, the
// shard listeners, the ingest thread (its final publish needs the
// service) and the services last.
ServeStack::~ServeStack() = default;

Status ServeStack::BootSingle(const City& city) {
  GEMREC_ASSIGN_OR_RETURN(embedding::EmbeddingStore store,
                          embedding::LoadEmbeddingStore(city.model_path));
  builders_.push_back(std::make_unique<serving::SnapshotBuilder>(
      store, city.pool, city.num_users, serving::SnapshotOptions{}));
  serving::ServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.cache_capacity = 4000;
  services_.push_back(
      std::make_unique<serving::RecommendationService>(service_options));
  services_[0]->Publish(builders_[0]->Build());

  if (options_.topology == Topology::kWrite) {
    // `gemrec serve --ingest-dir` defaults: fdatasync'd journal,
    // 64-record / 200 ms publish cadence, checkpoint every 4096.
    serving::IngestionQueueOptions ingest_options;
    ingest_options.journal_path = options_.ingest_dir + "/journal";
    ingest_options.checkpoint_base = options_.ingest_dir + "/checkpoint";
    ingest_options.checkpoint_every = 4096;
    const std::vector<pid_t> before = ListThreads();
    ingest_ = std::make_unique<serving::IngestionQueue>(
        services_[0].get(), builders_[0].get(), ingest_options);
    GEMREC_RETURN_IF_ERROR(ingest_->Start());
    for (const pid_t tid : ListThreads()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) {
        ingest_threads_.insert(tid);
      }
    }
  }

  serving::QueryBackend* backend = services_[0].get();
  if (options_.traced) {
    front_timing_ = std::make_unique<TimingBackend>(backend);
    backend = front_timing_.get();
  }
  net::ServerOptions net_options;
  net_options.num_reactors = 1;
  front_server_ =
      std::make_unique<net::NetServer>(backend, net_options, ingest_.get());
  return front_server_->Start();
}

Status ServeStack::BootSharded(const City& city) {
  GEMREC_ASSIGN_OR_RETURN(embedding::EmbeddingStore store,
                          embedding::LoadEmbeddingStore(city.model_path));
  constexpr uint32_t kShards = 2;
  net::ServerOptions net_options;
  net_options.num_reactors = 1;
  std::vector<shard::ShardEndpoint> endpoints;
  for (uint32_t i = 0; i < kShards; ++i) {
    serving::SnapshotOptions snapshot_options;
    snapshot_options.shard = shard::ShardSpec{i, kShards};
    builders_.push_back(std::make_unique<serving::SnapshotBuilder>(
        store, city.pool, city.num_users, snapshot_options));
    serving::ServiceOptions service_options;
    service_options.num_workers = 1;
    service_options.cache_capacity = 4000;
    services_.push_back(
        std::make_unique<serving::RecommendationService>(service_options));
    services_[i]->Publish(builders_[i]->Build());
    serving::QueryBackend* backend = services_[i].get();
    if (options_.traced) {
      shard_timing_.push_back(std::make_unique<TimingBackend>(backend));
      backend = shard_timing_.back().get();
    }
    shard_servers_.push_back(
        std::make_unique<net::NetServer>(backend, net_options));
    GEMREC_RETURN_IF_ERROR(shard_servers_.back()->Start());
    endpoints.push_back(
        shard::ShardEndpoint{"127.0.0.1", shard_servers_.back()->port()});
  }
  coordinator_ = std::make_unique<shard::CoordinatorBackend>(endpoints);
  GEMREC_RETURN_IF_ERROR(coordinator_->Start());

  serving::QueryBackend* backend = coordinator_.get();
  if (options_.traced) {
    front_timing_ = std::make_unique<TimingBackend>(backend);
    backend = front_timing_.get();
  }
  front_server_ = std::make_unique<net::NetServer>(backend, net_options);
  return front_server_->Start();
}

}  // namespace gemrec::perfbench
