// gemrec — command-line front end for the library.
//
//   gemrec generate  --city beijing --scale 0.5 --out DIR
//   gemrec profile   --data DIR
//   gemrec train     --data DIR [--config gem-a|gem-p|pte]
//                    [--samples N] [--dim K] [--threads T] --model FILE
//   gemrec evaluate  --data DIR --model FILE [--cases N]
//   gemrec recommend --data DIR --model FILE --user U [--n N]
//                    [--top-k K] [--weekend] [--explain]
//   gemrec serve     --data DIR --model FILE [--queries Q] [--workers W]
//                    [--clients C] [--swaps S] [--n N] [--top-k K]
//   gemrec stats     HOST:PORT
//
// The CLI covers the full offline/online workflow: synthesize (or
// bring) a dataset, inspect it, train GEM embeddings, evaluate both
// paper tasks, serve joint event-partner recommendations, and scrape
// a live server's metrics.

#include <csignal>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ebsn/io.h"
#include "ebsn/tfidf.h"
#include "ebsn/split.h"
#include "ebsn/stats.h"
#include "ebsn/synthetic.h"
#include "embedding/online_update.h"
#include "embedding/serialization.h"
#include "embedding/trainer.h"
#include "eval/ground_truth.h"
#include "eval/protocol.h"
#include "graph/graph_builder.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "recommend/explain.h"
#include "recommend/filters.h"
#include "recommend/query_kinds.h"
#include "recommend/recommender.h"
#include "serving/ingestion_queue.h"
#include "serving/model_reloader.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"
#include "shard/coordinator.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"

namespace gemrec::cli {
namespace {

/// Minimal --flag value parser; flags without a value store "true".
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  std::optional<std::string> Get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string GetOr(const std::string& key,
                    const std::string& fallback) const {
    return Get(key).value_or(fallback);
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto v = Get(key);
    return v ? std::atof(v->c_str()) : fallback;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto v = Get(key);
    return v ? std::atoll(v->c_str()) : fallback;
  }
  bool Has(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "gemrec: %s\n", message.c_str());
  return 1;
}

/// SIGINT/SIGTERM plumbing for `gemrec serve`. Installed in BOTH serve
/// modes so an interrupted run always tears down through destructors
/// (ResultCache, snapshot refcounts, worker joins) instead of dying
/// mid-flight: the batch mode polls g_stop between queries, the
/// network mode additionally gets a graceful drain kick.
std::atomic<bool> g_stop{false};
std::atomic<net::NetServer*> g_net_server{nullptr};

void HandleStopSignal(int) {
  g_stop.store(true, std::memory_order_relaxed);
  if (net::NetServer* server =
          g_net_server.load(std::memory_order_relaxed)) {
    server->NotifyDrainFromSignal();  // async-signal-safe
  }
}

void InstallStopHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// End-of-run / periodic metrics dump: the same Prometheus-style text
/// exposition `gemrec stats` fetches over the wire, printed locally.
/// One registry covers the whole serve stack (gemrec_service_* and,
/// when a NetServer is attached, gemrec_net_*).
void DumpMetrics(serving::RecommendationService* service) {
  const std::string text =
      obs::RenderText(service->metrics()->Snapshot());
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gemrec generate  --city beijing|shanghai [--scale S] --out DIR\n"
      "  gemrec profile   --data DIR\n"
      "  gemrec train     --data DIR [--config gem-a|gem-p|pte]\n"
      "                   [--samples N] [--dim K] [--threads T] "
      "--model FILE\n"
      "  gemrec evaluate  --data DIR --model FILE [--cases N]\n"
      "  gemrec recommend --data DIR --model FILE --user U [--n N]\n"
      "                   [--top-k K] [--weekend] [--explain]\n"
      "                   [--kind partner|group|reciprocal]\n"
      "                   [--group ID,ID,...] [--agg sum|min]\n"
      "                   (--kind group ranks events for user U\n"
      "                   attending with the fixed --group partner set,\n"
      "                   aggregated by --agg; --kind reciprocal ranks\n"
      "                   (event, partner) pairs by the min of the two\n"
      "                   directed scores, over U's friends when U has\n"
      "                   any, else over all users)\n"
      "  gemrec foldin    --data DIR --model FILE --event X\n"
      "                   [--out FILE]   (online cold-event fold-in)\n"
      "  gemrec serve     --data DIR --model FILE [--queries Q]\n"
      "                   [--workers W] [--clients C] [--swaps S]\n"
      "                   [--n N] [--top-k K] [--reload FILE]\n"
      "                   (batch-query serving; --reload republishes\n"
      "                   from FILE each swap, surviving corrupt files;\n"
      "                   every kind but group is retrieved by quantized\n"
      "                   multi-query TA with exact fp32 re-rank)\n"
      "  gemrec serve     --data DIR --model FILE --listen HOST:PORT\n"
      "                   [--reactors R] [--workers W] [--max-in-flight M]\n"
      "                   [--idle-timeout-ms MS] [--reload FILE]\n"
      "                   [--reload-interval SEC] [--stats-interval SEC]\n"
      "                   [--ingest-dir DIR] [--publish-every N]\n"
      "                   [--publish-interval-ms MS] [--max-pending P]\n"
      "                   [--checkpoint-every N]\n"
      "                   (multi-reactor epoll TCP server speaking the\n"
      "                   framed binary protocol, one SO_REUSEPORT\n"
      "                   listener per reactor; --reactors defaults to\n"
      "                   min(4, cores); SIGINT/SIGTERM drains gracefully;\n"
      "                   --stats-interval dumps metrics periodically;\n"
      "                   --ingest-dir enables the write path: attend/\n"
      "                   new-event frames are journaled to DIR, folded\n"
      "                   into the staging store, and published as delta\n"
      "                   snapshots; acknowledged writes survive SIGKILL\n"
      "                   and are replayed on restart)\n"
      "                   (add --shard i/N to build and serve only\n"
      "                   shard i's hash-slice of the candidate-pair\n"
      "                   space, behind a gemrec coordinate tier)\n"
      "  gemrec coordinate --shards HOST:P1,HOST:P2,... --listen H:P\n"
      "                   [--shard-deadline-ms MS] [--breaker-threshold N]\n"
      "                   [--breaker-backoff-ms MS] [--reactors R]\n"
      "                   [--max-in-flight M]\n"
      "                   (scatter-gather coordinator over gemrec serve\n"
      "                   --shard instances: same wire protocol as\n"
      "                   serve; merges per-shard top-k with their TA\n"
      "                   thresholds, degrades to typed partial results\n"
      "                   when a shard misses its deadline, and evicts/\n"
      "                   re-probes dead shards breaker-style; gemrec\n"
      "                   stats against it returns the merged registry\n"
      "                   with per-shard {shard=\"i\"} rollups)\n"
      "  gemrec ingest    HOST:PORT --attend USER:EVENT [--new-user]\n"
      "  gemrec ingest    HOST:PORT --new-event X --data DIR\n"
      "                   (stream a write to a live --ingest-dir server:\n"
      "                   an attendance nudge / cold-user fold-in, or a\n"
      "                   cold event with TF-IDF signals from DIR;\n"
      "                   prints the durable journal seq on success)\n"
      "  gemrec stats     HOST:PORT\n"
      "                   (scrape a live server's counters and latency\n"
      "                   histograms; prints text exposition format)\n");
  return 2;
}

int CmdGenerate(const Args& args) {
  const std::string city = args.GetOr("city", "beijing");
  const auto out = args.Get("out");
  if (!out) return Fail("--out is required");
  const double scale = args.GetDouble("scale", 1.0);
  ebsn::SyntheticConfig config =
      city == "shanghai" ? ebsn::SyntheticConfig::Shanghai(scale)
                         : ebsn::SyntheticConfig::Beijing(scale);
  if (const auto seed = args.Get("seed")) {
    config.seed = std::strtoull(seed->c_str(), nullptr, 10);
  }
  const auto data = ebsn::GenerateSynthetic(config);
  if (const Status s = ebsn::SaveDataset(data.dataset, *out); !s.ok()) {
    return Fail(s.ToString());
  }
  const auto stats = data.dataset.Stats();
  std::printf("wrote %s: %zu users, %zu events, %zu attendances, "
              "%zu friendships\n",
              out->c_str(), stats.num_users, stats.num_events,
              stats.num_attendances, stats.num_friendships);
  return 0;
}

int CmdProfile(const Args& args) {
  const auto dir = args.Get("data");
  if (!dir) return Fail("--data is required");
  auto dataset = ebsn::LoadDataset(*dir);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  const auto profile = ebsn::ProfileDataset(*dataset);
  auto print = [](const char* name,
                  const ebsn::DistributionSummary& s) {
    std::printf("%-18s mean %.1f  p50 %zu  p90 %zu  p99 %zu  max %zu  "
                "gini %.2f\n",
                name, s.mean, s.p50, s.p90, s.p99, s.max, s.gini);
  };
  print("events/user", profile.events_per_user);
  print("users/event", profile.users_per_event);
  print("friends/user", profile.friends_per_user);
  print("words/event", profile.words_per_event);
  std::printf("active users (>=5 events): %zu\n", profile.active_users);
  std::printf("attendances with a co-attending friend: %.1f%%\n",
              100.0 * profile.coattendance_fraction);
  return 0;
}

struct LoadedWorld {
  ebsn::Dataset dataset;
  std::unique_ptr<ebsn::ChronologicalSplit> split;
  std::unique_ptr<graph::EbsnGraphs> graphs;
};

Result<LoadedWorld> LoadWorld(const std::string& dir) {
  GEMREC_ASSIGN_OR_RETURN(auto dataset, ebsn::LoadDataset(dir));
  LoadedWorld world{std::move(dataset), nullptr, nullptr};
  world.split =
      std::make_unique<ebsn::ChronologicalSplit>(world.dataset);
  GEMREC_ASSIGN_OR_RETURN(
      auto graphs,
      graph::BuildEbsnGraphs(world.dataset, *world.split, {}));
  world.graphs =
      std::make_unique<graph::EbsnGraphs>(std::move(graphs));
  return world;
}

int CmdTrain(const Args& args) {
  const auto dir = args.Get("data");
  const auto model_path = args.Get("model");
  if (!dir || !model_path) {
    return Fail("--data and --model are required");
  }
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());

  const std::string config_name = args.GetOr("config", "gem-a");
  embedding::TrainerOptions options;
  if (config_name == "gem-a") {
    options = embedding::TrainerOptions::GemA();
  } else if (config_name == "gem-p") {
    options = embedding::TrainerOptions::GemP();
  } else if (config_name == "pte") {
    options = embedding::TrainerOptions::Pte();
  } else {
    return Fail("unknown --config " + config_name);
  }
  options.num_samples =
      static_cast<uint64_t>(args.GetInt("samples", 2000000));
  options.dim = static_cast<uint32_t>(args.GetInt("dim", 60));
  options.num_threads =
      static_cast<uint32_t>(args.GetInt("threads", 1));

  embedding::JointTrainer trainer(world->graphs.get(), options);
  std::printf("training %s: N=%llu K=%u threads=%u ...\n",
              config_name.c_str(),
              static_cast<unsigned long long>(options.num_samples),
              options.dim, options.num_threads);
  trainer.Train();
  if (const Status s =
          embedding::SaveEmbeddingStore(trainer.store(), *model_path);
      !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("wrote %s\n", model_path->c_str());
  return 0;
}

int CmdEvaluate(const Args& args) {
  const auto dir = args.Get("data");
  const auto model_path = args.Get("model");
  if (!dir || !model_path) {
    return Fail("--data and --model are required");
  }
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());
  recommend::GemModel model(&store.value(), "gem");

  eval::ProtocolOptions options;
  options.max_cases = static_cast<size_t>(args.GetInt("cases", 400));
  const auto events = eval::EvaluateColdStartEvents(
      model, world->dataset, *world->split, options);
  std::printf("cold-start event recommendation (%zu cases):\n",
              events.num_cases);
  for (size_t i = 0; i < events.cutoffs.size(); ++i) {
    std::printf("  Ac@%-3zu %.3f   NDCG@%-3zu %.3f\n", events.cutoffs[i],
                events.accuracy[i], events.cutoffs[i], events.ndcg[i]);
  }
  std::printf("  MRR %.3f  mean rank %.1f\n", events.mrr,
              events.mean_rank);

  const auto truth =
      eval::BuildPartnerGroundTruth(world->dataset, *world->split);
  const auto partners = eval::EvaluateEventPartner(
      model, world->dataset, *world->split, truth, options);
  std::printf("joint event-partner recommendation (%zu cases):\n",
              partners.num_cases);
  for (size_t i = 0; i < partners.cutoffs.size(); ++i) {
    std::printf("  Ac@%-3zu %.3f   NDCG@%-3zu %.3f\n",
                partners.cutoffs[i], partners.accuracy[i],
                partners.cutoffs[i], partners.ndcg[i]);
  }
  std::printf("  MRR %.3f  mean rank %.1f\n", partners.mrr,
              partners.mean_rank);
  return 0;
}

int CmdRecommend(const Args& args) {
  const auto dir = args.Get("data");
  const auto model_path = args.Get("model");
  const auto user_arg = args.Get("user");
  if (!dir || !model_path || !user_arg) {
    return Fail("--data, --model and --user are required");
  }
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());
  recommend::GemModel model(&store.value(), "gem");

  const auto user =
      static_cast<ebsn::UserId>(std::atoll(user_arg->c_str()));
  if (user >= world->dataset.num_users()) {
    return Fail("user id out of range");
  }

  std::vector<ebsn::EventId> pool = world->split->test_events();
  if (args.Has("weekend")) {
    recommend::EventFilter filter;
    filter.weekpart = recommend::EventFilter::Weekpart::kWeekendOnly;
    pool = recommend::FilterEvents(world->dataset, pool, filter);
  }
  if (pool.empty()) return Fail("no recommendable events after filters");

  recommend::QueryKind kind = recommend::QueryKind::kPartner;
  if (const auto kind_arg = args.Get("kind")) {
    if (!recommend::ParseQueryKind(*kind_arg, &kind)) {
      return Fail("--kind expects partner|group|reciprocal, got '" +
                  *kind_arg + "'");
    }
  }

  if (kind == recommend::QueryKind::kGroup) {
    const auto group_arg = args.Get("group");
    if (!group_arg || *group_arg == "true") {
      return Fail("--kind group requires --group ID,ID,...");
    }
    std::vector<ebsn::UserId> members;
    std::string token;
    for (std::istringstream ss(*group_arg); std::getline(ss, token, ',');) {
      if (token.empty()) continue;
      const auto member =
          static_cast<ebsn::UserId>(std::atoll(token.c_str()));
      if (member >= world->dataset.num_users()) {
        return Fail("group member " + token + " out of range");
      }
      members.push_back(member);
    }
    if (members.empty()) return Fail("--group lists no member ids");
    recommend::GroupAggregator agg = recommend::GroupAggregator::kSum;
    if (const auto agg_arg = args.Get("agg")) {
      if (!recommend::ParseGroupAggregator(*agg_arg, &agg)) {
        return Fail("--agg expects sum|min, got '" + *agg_arg + "'");
      }
    }
    const size_t n = static_cast<size_t>(args.GetInt("n", 10));
    for (const auto& r : recommend::GroupTopEvents(
             model, pool, user, members, agg, n)) {
      std::printf("event %6u  group(%zu) %s-score %.3f\n", r.event,
                  members.size(), recommend::GroupAggregatorName(agg),
                  r.score);
    }
    return 0;
  }

  if (kind == recommend::QueryKind::kReciprocal) {
    // Candidate partners: the user's friends (reciprocal matching is a
    // social workload); a friendless user falls back to everyone.
    std::vector<ebsn::UserId> partners = world->dataset.FriendsOf(user);
    if (partners.empty()) {
      for (uint32_t v = 0; v < world->dataset.num_users(); ++v) {
        if (v != user) partners.push_back(v);
      }
    }
    std::vector<recommend::CandidatePair> pairs;
    pairs.reserve(pool.size() * partners.size());
    for (const ebsn::EventId x : pool) {
      for (const ebsn::UserId v : partners) {
        pairs.push_back(recommend::CandidatePair{x, v});
      }
    }
    const recommend::TransformedSpace space(model, std::move(pairs));
    const size_t n = static_cast<size_t>(args.GetInt("n", 10));
    for (const auto& r :
         recommend::ReciprocalTopPairs(model, space, user, n)) {
      std::printf("event %6u  partner %6u  reciprocal score %.3f\n",
                  r.event, r.partner, r.score);
    }
    return 0;
  }

  recommend::RecommenderOptions rec_options;
  rec_options.top_k_events_per_partner =
      static_cast<uint32_t>(args.GetInt("top-k", 20));
  recommend::EventPartnerRecommender recommender(
      &model, pool, world->dataset.num_users(), rec_options);
  const size_t n = static_cast<size_t>(args.GetInt("n", 10));
  for (const auto& r : recommender.Recommend(user, n)) {
    std::printf("event %6u  partner %6u  score %.3f\n", r.event,
                r.partner, r.score);
    if (args.Has("explain")) {
      const auto explanation = recommend::ExplainRecommendation(
          model, world->dataset, *world->graphs, user, r.event,
          r.partner);
      std::printf("%s\n", explanation.ToString().c_str());
    }
  }
  return 0;
}

int CmdFoldin(const Args& args) {
  const auto dir = args.Get("data");
  const auto model_path = args.Get("model");
  const auto event_arg = args.Get("event");
  if (!dir || !model_path || !event_arg) {
    return Fail("--data, --model and --event are required");
  }
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());

  const auto event =
      static_cast<ebsn::EventId>(std::atoll(event_arg->c_str()));
  if (event >= world->dataset.num_events()) {
    return Fail("event id out of range");
  }

  // TF-IDF signals against the corpus, as a serving system would
  // compute them for a just-published event.
  std::vector<std::vector<ebsn::WordId>> docs(
      world->dataset.num_events());
  for (uint32_t x = 0; x < world->dataset.num_events(); ++x) {
    docs[x] = world->dataset.event(x).words;
  }
  const auto tfidf =
      ebsn::ComputeTfIdf(docs, world->dataset.vocab_size());
  embedding::NewEventSignals signals;
  for (const auto& ww : tfidf[event]) {
    signals.words.push_back({ww.word, static_cast<float>(ww.weight)});
  }
  signals.region = world->graphs->event_region[event];
  signals.start_time = world->dataset.event(event).start_time;

  if (const Status s = embedding::FoldInColdEvent(&store.value(), event,
                                                  signals, {});
      !s.ok()) {
    return Fail(s.ToString());
  }
  const std::string out = args.GetOr("out", *model_path);
  if (const Status s = embedding::SaveEmbeddingStore(store.value(), out);
      !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("folded event %u in from %zu words + region + time; "
              "wrote %s\n",
              event, signals.words.size(), out.c_str());
  return 0;
}

/// `gemrec serve --listen host:port`: the epoll front-end over the
/// same service/builder/reloader stack the batch mode exercises.
/// Blocks until SIGINT/SIGTERM, then drains gracefully (stop
/// accepting, flush in-flight responses) before tearing down.
int ServeListen(const Args& args, const std::string& listen_spec,
                serving::RecommendationService* service,
                serving::SnapshotBuilder* builder) {
  net::ServerOptions net_options;
  uint16_t port = 0;
  if (const Status s = net::ParseHostPort(
          listen_spec, &net_options.listen_address, &port);
      !s.ok()) {
    return Fail(s.ToString());
  }
  net_options.port = port;
  net_options.max_in_flight =
      static_cast<uint32_t>(args.GetInt("max-in-flight", 256));
  net_options.idle_timeout =
      std::chrono::milliseconds(args.GetInt("idle-timeout-ms", 60000));
  // One epoll reactor per core up to 4 by default — past that the
  // service workers, not the front-end, are the bottleneck.
  const unsigned hw = std::thread::hardware_concurrency();
  net_options.num_reactors = static_cast<uint32_t>(args.GetInt(
      "reactors",
      static_cast<int64_t>(std::min(4u, std::max(1u, hw)))));

  // --ingest-dir enables the write path: a journaled ingestion queue
  // over the same builder, recovered (checkpoint + journal replay)
  // before the listener opens, so the first served snapshot already
  // contains every previously acknowledged write.
  std::optional<serving::IngestionQueue> ingest;
  if (const auto ingest_dir = args.Get("ingest-dir");
      ingest_dir && *ingest_dir != "true") {
    if (::mkdir(ingest_dir->c_str(), 0755) != 0 && errno != EEXIST) {
      return Fail("mkdir " + *ingest_dir + ": " + std::strerror(errno));
    }
    serving::IngestionQueueOptions iq;
    iq.journal_path = *ingest_dir + "/journal";
    iq.checkpoint_base = *ingest_dir + "/checkpoint";
    iq.max_pending =
        static_cast<size_t>(args.GetInt("max-pending", 1024));
    iq.publish_threshold =
        static_cast<size_t>(args.GetInt("publish-every", 64));
    iq.publish_interval =
        std::chrono::milliseconds(args.GetInt("publish-interval-ms", 200));
    iq.checkpoint_every =
        static_cast<size_t>(args.GetInt("checkpoint-every", 4096));
    ingest.emplace(service, builder, iq);
    if (const Status s = ingest->Start(); !s.ok()) {
      return Fail("ingestion recovery: " + s.ToString());
    }
    std::printf("ingestion on: journal=%s replayed=%llu%s\n",
                iq.journal_path.c_str(),
                static_cast<unsigned long long>(ingest->replayed()),
                ingest->recovered_clean() ? "" : " (torn tail dropped)");
  }

  net::NetServer server(service, net_options,
                        ingest ? &*ingest : nullptr);
  if (const Status s = server.Start(); !s.ok()) {
    return Fail(s.ToString());
  }
  g_net_server.store(&server, std::memory_order_relaxed);
  // A signal delivered before the server pointer was published only
  // set g_stop; convert it into a drain now.
  if (g_stop.load(std::memory_order_relaxed)) server.RequestDrain();
  std::printf("listening on %s:%u (reactors=%u, workers=%u, "
              "max-in-flight=%u); SIGINT/SIGTERM drains and exits\n",
              net_options.listen_address.c_str(), server.port(),
              std::max(1u, net_options.num_reactors),
              service->options().num_workers, net_options.max_in_flight);

  // Optional freshness loop: republish from the artifact every
  // --reload-interval seconds through the crash-safe reload path,
  // under whatever live connections exist.
  // With ingestion on, reloads must go through the queue's control
  // path (ReloadBase re-applies the journaled tail onto the fresh
  // base); a bare ModelReloader would race the ingest thread's
  // exclusive builder ownership and silently drop folded-in records.
  const auto reload_path = args.Get("reload");
  std::thread reload_thread;
  if (reload_path && *reload_path != "true") {
    const auto interval =
        std::chrono::seconds(args.GetInt("reload-interval", 30));
    reload_thread = std::thread([&, interval] {
      serving::ModelReloader reloader(service, builder, {});
      auto next = std::chrono::steady_clock::now() + interval;
      while (server.running() &&
             !g_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          continue;
        }
        next = std::chrono::steady_clock::now() + interval;
        const Status s = ingest ? ingest->ReloadBase(*reload_path)
                                : reloader.ReloadWithRetry(*reload_path);
        if (!s.ok()) {
          std::fprintf(stderr, "reload failed (still serving): %s\n",
                       s.ToString().c_str());
        }
      }
    });
  }

  // Optional observability heartbeat: dump the text exposition every
  // --stats-interval seconds, for operators tailing the log instead of
  // scraping `gemrec stats host:port`.
  const int64_t stats_interval = args.GetInt("stats-interval", 0);
  std::thread stats_thread;
  if (stats_interval > 0) {
    const auto interval = std::chrono::seconds(stats_interval);
    stats_thread = std::thread([&, interval] {
      auto next = std::chrono::steady_clock::now() + interval;
      while (server.running() &&
             !g_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          continue;
        }
        next = std::chrono::steady_clock::now() + interval;
        DumpMetrics(service);
      }
    });
  }

  server.WaitUntilStopped();
  g_net_server.store(nullptr, std::memory_order_relaxed);
  g_stop.store(true, std::memory_order_relaxed);
  if (reload_thread.joinable()) reload_thread.join();
  if (stats_thread.joinable()) stats_thread.join();
  server.Stop();
  // After the listener is gone no new writes can arrive; drain what
  // was accepted (journal + apply + ack + final publish) before exit.
  if (ingest) ingest->Shutdown();

  std::printf("drained after %llu connections; final metrics:\n",
              static_cast<unsigned long long>(
                  service->metrics()
                      ->Snapshot()
                      .Find("gemrec_net_accepted_total")
                      ->counter));
  DumpMetrics(service);
  return 0;
}

int CmdServe(const Args& args) {
  const auto dir = args.Get("data");
  const auto model_path = args.Get("model");
  if (!dir || !model_path) {
    return Fail("--data and --model are required");
  }
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());

  // Both serve modes install the handlers (an uncaught SIGINT would
  // skip ResultCache/snapshot teardown); the batch loops below poll
  // g_stop, the network mode drains.
  InstallStopHandlers();

  const size_t queries = static_cast<size_t>(args.GetInt("queries", 2000));
  const size_t n = static_cast<size_t>(args.GetInt("n", 10));
  const uint32_t swaps = static_cast<uint32_t>(args.GetInt("swaps", 2));
  const uint32_t clients =
      static_cast<uint32_t>(std::max<int64_t>(1, args.GetInt("clients", 2)));

  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner =
      static_cast<uint32_t>(args.GetInt("top-k", 20));
  // --shard i/N keeps only this instance's deterministic hash-slice of
  // the candidate-pair space; a coordinator (gemrec coordinate) fans
  // queries out over all N and merges.
  if (const auto shard = args.Get("shard"); shard && *shard != "true") {
    if (!shard::ParseShardSpec(*shard, &snapshot_options.shard)) {
      return Fail("--shard expects i/N with 0 <= i < N, got '" + *shard +
                  "'");
    }
  }
  serving::SnapshotBuilder builder(
      store.value(), world->split->test_events(),
      world->dataset.num_users(), snapshot_options);

  serving::ServiceOptions service_options;
  service_options.num_workers =
      static_cast<uint32_t>(args.GetInt("workers", 4));
  serving::RecommendationService service(service_options);
  service.Publish(builder.Build());

  if (const auto listen = args.Get("listen");
      listen && *listen != "true") {
    return ServeListen(args, *listen, &service, &builder);
  }

  std::printf("serving %zu events to %u users: workers=%u clients=%u "
              "queries=%zu swaps=%u\n",
              builder.event_pool().size(), world->dataset.num_users(),
              service_options.num_workers, clients, queries, swaps);

  // Closed-loop clients: each thread issues synchronous queries over a
  // rotating user set and records its own latencies; a background
  // updater races --swaps fold-in + rebuild + publish cycles against
  // the traffic, demonstrating that reloads never block queries.
  std::vector<std::vector<double>> latencies(clients);
  const auto wall_start = std::chrono::steady_clock::now();
  // With --reload FILE each swap republishes from the on-disk artifact
  // through the crash-safe reload path: a corrupt or mid-write FILE
  // costs freshness (counted below), never availability.
  const auto reload_path = args.Get("reload");
  serving::ModelReloader reloader(&service, &builder, {});
  std::thread updater([&] {
    embedding::OnlineUpdateOptions update;
    update.iterations = 50;
    for (uint32_t s = 0; s < swaps; ++s) {
      if (g_stop.load(std::memory_order_relaxed)) return;
      const auto& attendance = world->dataset.attendances();
      const auto& a = attendance[s % attendance.size()];
      if (!builder.RecordAttendance(a.user, a.event, update).ok()) return;
      if (reload_path && *reload_path != "true") {
        (void)reloader.ReloadWithRetry(*reload_path);
      } else {
        service.Publish(builder.Build());
      }
    }
  });
  std::vector<std::thread> client_threads;
  for (uint32_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      auto& mine = latencies[c];
      mine.reserve(queries / clients + 1);
      for (size_t i = c; i < queries; i += clients) {
        if (g_stop.load(std::memory_order_relaxed)) break;
        serving::QueryRequest request;
        request.user = static_cast<ebsn::UserId>(
            (i * 131) % world->dataset.num_users());
        request.n = n;
        const auto start = std::chrono::steady_clock::now();
        const auto response = service.Query(request);
        const auto stop = std::chrono::steady_clock::now();
        (void)response;
        mine.push_back(
            std::chrono::duration<double, std::micro>(stop - start)
                .count());
      }
    });
  }
  for (auto& thread : client_threads) thread.join();
  updater.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::vector<double> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  if (all.empty()) return 0;  // stopped by signal before any query
  std::sort(all.begin(), all.end());
  std::printf("served %zu queries in %.2fs: %.0f qps\n", all.size(),
              wall_seconds, all.size() / wall_seconds);
  // Nearest-rank percentiles (an earlier revision indexed p*n, which
  // over-reads toward the max for small sample counts).
  std::printf("latency p50 %.0fus  p90 %.0fus  p99 %.0fus\n",
              obs::SamplePercentile(all, 0.50),
              obs::SamplePercentile(all, 0.90),
              obs::SamplePercentile(all, 0.99));
  DumpMetrics(&service);
  return 0;
}

/// `gemrec coordinate --shards host:p1,host:p2 --listen host:port` —
/// the scatter-gather tier: a CoordinatorBackend (ShardRouter fan-out
/// + TA-bounded top-k merge) behind the same NetServer front-end that
/// `gemrec serve --listen` uses, speaking the same wire protocol.
/// Each shard should run `gemrec serve --listen --shard i/N` with the
/// same model over the same event pool; i in the order the endpoints
/// are listed here.
int CmdCoordinate(const Args& args) {
  const auto shards_spec = args.Get("shards");
  const auto listen_spec = args.Get("listen");
  if (!shards_spec || *shards_spec == "true" || !listen_spec ||
      *listen_spec == "true") {
    return Fail("--shards and --listen are required");
  }
  std::vector<shard::ShardEndpoint> endpoints;
  if (const Status s = shard::ParseShardEndpoints(*shards_spec,
                                                  &endpoints);
      !s.ok()) {
    return Fail(s.ToString());
  }

  shard::CoordinatorOptions coordinator_options;
  coordinator_options.router.shard_deadline = std::chrono::milliseconds(
      args.GetInt("shard-deadline-ms", 250));
  coordinator_options.router.breaker_threshold = static_cast<uint32_t>(
      args.GetInt("breaker-threshold", 3));
  coordinator_options.router.breaker_backoff = std::chrono::milliseconds(
      args.GetInt("breaker-backoff-ms", 250));
  shard::CoordinatorBackend coordinator(endpoints, coordinator_options);
  if (const Status s = coordinator.Start(); !s.ok()) {
    return Fail(s.ToString());
  }

  net::ServerOptions net_options;
  uint16_t port = 0;
  if (const Status s = net::ParseHostPort(
          *listen_spec, &net_options.listen_address, &port);
      !s.ok()) {
    return Fail(s.ToString());
  }
  net_options.port = port;
  net_options.max_in_flight =
      static_cast<uint32_t>(args.GetInt("max-in-flight", 256));
  net_options.idle_timeout =
      std::chrono::milliseconds(args.GetInt("idle-timeout-ms", 60000));
  net_options.num_reactors =
      static_cast<uint32_t>(args.GetInt("reactors", 1));

  InstallStopHandlers();
  net::NetServer server(&coordinator, net_options);
  if (const Status s = server.Start(); !s.ok()) {
    return Fail(s.ToString());
  }
  g_net_server.store(&server, std::memory_order_relaxed);
  if (g_stop.load(std::memory_order_relaxed)) server.RequestDrain();
  std::printf("coordinating %zu shard(s) on %s:%u "
              "(deadline=%lldms, breaker=%u); SIGINT/SIGTERM drains\n",
              coordinator.num_shards(),
              net_options.listen_address.c_str(), server.port(),
              static_cast<long long>(
                  coordinator_options.router.shard_deadline.count()),
              coordinator_options.router.breaker_threshold);
  server.WaitUntilStopped();
  g_net_server.store(nullptr, std::memory_order_relaxed);
  server.Stop();
  coordinator.Stop();
  const std::string text =
      obs::RenderText(coordinator.metrics()->Snapshot());
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fflush(stdout);
  return 0;
}

/// `gemrec ingest host:port` — stream one write to a live
/// `gemrec serve --listen --ingest-dir` server: an attendance
/// (--attend USER:EVENT, with --new-user folding in a cold user
/// vector) or a cold event (--new-event X, TF-IDF signals computed
/// from --data exactly as the offline `gemrec foldin` does). Blocks
/// for the kIngestAck: success means the record is journaled durably
/// and will appear in search results by the next delta publish.
int CmdIngest(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    return Fail("usage: gemrec ingest HOST:PORT --attend USER:EVENT "
                "[--new-user] | --new-event X --data DIR");
  }
  std::string host;
  uint16_t port = 0;
  if (const Status s = net::ParseHostPort(argv[2], &host, &port);
      !s.ok()) {
    return Fail(s.ToString());
  }
  const Args args(argc, argv);

  auto client = net::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status().ToString());

  Result<net::IngestOutcome> outcome =
      Status::InvalidArgument("one of --attend or --new-event required");
  if (const auto attend = args.Get("attend");
      attend && *attend != "true") {
    const auto colon = attend->find(':');
    if (colon == std::string::npos) {
      return Fail("--attend expects USER:EVENT");
    }
    const auto user = static_cast<ebsn::UserId>(
        std::atoll(attend->substr(0, colon).c_str()));
    const auto event = static_cast<ebsn::EventId>(
        std::atoll(attend->substr(colon + 1).c_str()));
    outcome = client.value()->Attend(user, event, args.Has("new-user"));
  } else if (const auto event_arg = args.Get("new-event");
             event_arg && *event_arg != "true") {
    const auto dir = args.Get("data");
    if (!dir) return Fail("--new-event requires --data for signals");
    auto world = LoadWorld(*dir);
    if (!world.ok()) return Fail(world.status().ToString());
    const auto event =
        static_cast<ebsn::EventId>(std::atoll(event_arg->c_str()));
    if (event >= world->dataset.num_events()) {
      return Fail("event id out of range");
    }
    std::vector<std::vector<ebsn::WordId>> docs(
        world->dataset.num_events());
    for (uint32_t x = 0; x < world->dataset.num_events(); ++x) {
      docs[x] = world->dataset.event(x).words;
    }
    const auto tfidf =
        ebsn::ComputeTfIdf(docs, world->dataset.vocab_size());
    embedding::NewEventSignals signals;
    for (const auto& ww : tfidf[event]) {
      signals.words.push_back({ww.word, static_cast<float>(ww.weight)});
    }
    signals.region = world->graphs->event_region[event];
    signals.start_time = world->dataset.event(event).start_time;
    outcome = client.value()->PublishNewEvent(event, signals);
  }

  if (!outcome.ok()) return Fail(outcome.status().ToString());
  if (!outcome.value().ok) {
    return Fail("server refused (" +
                std::string(net::ErrorCodeName(outcome.value().error)) +
                "): " + outcome.value().error_message);
  }
  std::printf("acknowledged: journal seq %llu (durable; retrievable "
              "after the next delta publish)\n",
              static_cast<unsigned long long>(outcome.value().seq));
  return 0;
}

/// `gemrec stats host:port` — scrape a live `gemrec serve --listen`
/// server's metrics over the kStats wire pair and print the same text
/// exposition the serve modes dump locally.
int CmdStats(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    return Fail("usage: gemrec stats HOST:PORT");
  }
  std::string host;
  uint16_t port = 0;
  if (const Status s = net::ParseHostPort(argv[2], &host, &port);
      !s.ok()) {
    return Fail(s.ToString());
  }
  auto client = net::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status().ToString());
  auto snapshot = client.value()->Stats();
  if (!snapshot.ok()) return Fail(snapshot.status().ToString());
  const std::string text = obs::RenderText(snapshot.value());
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "generate") return CmdGenerate(args);
  if (command == "profile") return CmdProfile(args);
  if (command == "train") return CmdTrain(args);
  if (command == "evaluate") return CmdEvaluate(args);
  if (command == "recommend") return CmdRecommend(args);
  if (command == "foldin") return CmdFoldin(args);
  if (command == "serve") return CmdServe(args);
  if (command == "coordinate") return CmdCoordinate(args);
  if (command == "ingest") return CmdIngest(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace gemrec::cli

int main(int argc, char** argv) { return gemrec::cli::Main(argc, argv); }
