// gemrec — command-line front end for the library.
//
//   gemrec generate  --city beijing --scale 0.5 --out DIR
//   gemrec profile   --data DIR
//   gemrec train     --data DIR [--config gem-a|gem-p|pte]
//                    [--samples N] [--dim K] [--threads T] --model FILE
//   gemrec evaluate  --data DIR --model FILE [--cases N]
//   gemrec recommend --data DIR --model FILE --user U [--n N]
//                    [--top-k K] [--weekend] [--explain]
//   gemrec serve     --data DIR --model FILE --listen HOST:PORT
//                    [--workers W] [--top-k K] ...
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
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
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

namespace gemrec::cli {
namespace {

/// Parses `text` as a plain decimal in T's range: no sign, no
/// whitespace, nothing after the digits. Every integer the CLI takes is
/// a count, an id or a duration, so "-1" must fail rather than wrap to
/// a huge unsigned count.
template <typename T>
bool ParseUnsigned(std::string_view text, T* out) {
  static_assert(std::is_unsigned_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

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
  /// Integer flag --key, or `fallback` when it is absent. A value
  /// ParseUnsigned rejects yields `fallback` and records an error that
  /// names the flag; commands check error() before acting.
  template <typename T>
  T GetInt(const std::string& key, T fallback) const {
    const auto v = Get(key);
    if (!v) return fallback;
    T value{};
    if (ParseUnsigned(*v, &value)) return value;
    if (error_.empty()) {
      error_ = "--" + key + " expects an integer in [0, " +
               std::to_string(std::numeric_limits<T>::max()) + "], got '" +
               *v + "'";
    }
    return fallback;
  }
  /// The first integer-flag error, or empty when every value parsed.
  const std::string& error() const { return error_; }
  bool Has(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::string error_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "gemrec: %s\n", message.c_str());
  return 1;
}

/// SIGINT/SIGTERM plumbing for `gemrec serve` and `gemrec coordinate`:
/// a signal kicks a graceful drain of the NetServer (stop accepting,
/// flush in-flight responses), so an interrupted run tears down through
/// destructors (ResultCache, snapshot refcounts, worker joins) instead
/// of dying mid-flight. g_stop also ends the reload and stats threads,
/// and covers a signal that lands before the server pointer is set.
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
      "  gemrec serve     --data DIR --model FILE --listen HOST:PORT\n"
      "                   [--reactors R] [--workers W] [--top-k K]\n"
      "                   [--max-in-flight M] [--idle-timeout-ms MS]\n"
      "                   [--reload FILE] [--reload-interval SEC]\n"
      "                   [--stats-interval SEC]\n"
      "                   [--ingest-dir DIR] [--publish-every N]\n"
      "                   [--publish-interval-ms MS] [--max-pending P]\n"
      "                   [--checkpoint-every N] [--shard i/N]\n"
      "                   (multi-reactor epoll TCP server speaking the\n"
      "                   framed binary protocol, one SO_REUSEPORT\n"
      "                   listener per reactor; --reactors defaults to\n"
      "                   min(4, cores); every kind but group is\n"
      "                   retrieved by quantized multi-query TA with an\n"
      "                   exact fp32 re-rank; SIGINT/SIGTERM drains\n"
      "                   gracefully; --reload republishes from FILE\n"
      "                   every --reload-interval seconds, surviving\n"
      "                   corrupt files; --stats-interval dumps metrics\n"
      "                   periodically;\n"
      "                   --ingest-dir enables the write path: attend/\n"
      "                   new-event frames are journaled to DIR, folded\n"
      "                   into the staging store, and published as delta\n"
      "                   snapshots; acknowledged writes survive SIGKILL\n"
      "                   and are replayed on restart)\n"
      "                   (add --shard i/N to build and serve only\n"
      "                   the partners u with u mod N == i and their\n"
      "                   candidate pairs, behind a gemrec coordinate\n"
      "                   tier)\n"
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
  config.seed = args.GetInt<uint64_t>("seed", config.seed);
  if (!args.error().empty()) return Fail(args.error());
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
  options.num_samples = args.GetInt<uint64_t>("samples", 2000000);
  options.dim = args.GetInt<uint32_t>("dim", 60);
  options.num_threads = args.GetInt<uint32_t>("threads", 1);
  if (!args.error().empty()) return Fail(args.error());
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());

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
  eval::ProtocolOptions options;
  options.max_cases = args.GetInt<size_t>("cases", 400);
  if (!args.error().empty()) return Fail(args.error());
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());
  recommend::GemModel model(&store.value(), "gem");

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
  const auto user = args.GetInt<ebsn::UserId>("user", 0);
  const auto n = args.GetInt<size_t>("n", 10);
  const auto top_k = args.GetInt<uint32_t>("top-k", 20);
  if (!args.error().empty()) return Fail(args.error());
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());
  recommend::GemModel model(&store.value(), "gem");

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
      ebsn::UserId member = 0;
      if (!ParseUnsigned(token, &member) ||
          member >= world->dataset.num_users()) {
        return Fail("--group member '" + token + "' is not a user id");
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
    for (const auto& r :
         recommend::ReciprocalTopPairs(model, space, user, n)) {
      std::printf("event %6u  partner %6u  reciprocal score %.3f\n",
                  r.event, r.partner, r.score);
    }
    return 0;
  }

  recommend::RecommenderOptions rec_options;
  rec_options.top_k_events_per_partner = top_k;
  recommend::EventPartnerRecommender recommender(
      &model, pool, world->dataset.num_users(), rec_options);
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
  const auto event = args.GetInt<ebsn::EventId>("event", 0);
  if (!args.error().empty()) return Fail(args.error());
  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());

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

/// `gemrec serve --listen host:port`: loads the dataset and model,
/// publishes the first snapshot and serves it over the epoll front-end,
/// optionally with the journaled write path (--ingest-dir), periodic
/// reloads (--reload) and metrics dumps (--stats-interval). Blocks
/// until SIGINT/SIGTERM, then drains gracefully (stop accepting, flush
/// in-flight responses) before tearing down.
int CmdServe(const Args& args) {
  const auto dir = args.Get("data");
  const auto model_path = args.Get("model");
  const auto listen = args.Get("listen");
  if (!dir || !model_path || !listen || *listen == "true") {
    return Fail("--data, --model and --listen HOST:PORT are required");
  }

  net::ServerOptions net_options;
  uint16_t port = 0;
  if (const Status s =
          net::ParseHostPort(*listen, &net_options.listen_address, &port);
      !s.ok()) {
    return Fail(s.ToString());
  }
  net_options.port = port;
  net_options.max_in_flight = args.GetInt<uint32_t>("max-in-flight", 256);
  net_options.idle_timeout = std::chrono::milliseconds(
      args.GetInt<uint32_t>("idle-timeout-ms", 60000));
  // One epoll reactor per core up to 4 by default — past that the
  // service workers, not the front-end, are the bottleneck.
  const unsigned hw = std::thread::hardware_concurrency();
  net_options.num_reactors =
      args.GetInt<uint32_t>("reactors", std::min(4u, std::max(1u, hw)));

  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner =
      args.GetInt<uint32_t>("top-k", 20);
  serving::ServiceOptions service_options;
  service_options.num_workers = args.GetInt<uint32_t>("workers", 4);

  serving::IngestionQueueOptions iq;
  iq.max_pending = args.GetInt<size_t>("max-pending", 1024);
  iq.publish_threshold = args.GetInt<size_t>("publish-every", 64);
  iq.publish_interval = std::chrono::milliseconds(
      args.GetInt<uint32_t>("publish-interval-ms", 200));
  iq.checkpoint_every = args.GetInt<size_t>("checkpoint-every", 4096);
  const auto reload_interval =
      std::chrono::seconds(args.GetInt<uint32_t>("reload-interval", 30));
  const auto stats_interval =
      std::chrono::seconds(args.GetInt<uint32_t>("stats-interval", 0));
  if (!args.error().empty()) return Fail(args.error());

  // --shard i/N builds only the partners this instance owns
  // (shard/partitioner.h) and their candidate pairs; a coordinator
  // (gemrec coordinate) fans queries out over all N and merges.
  if (const auto shard = args.Get("shard"); shard && *shard != "true") {
    if (!shard::ParseShardSpec(*shard, &snapshot_options.shard)) {
      return Fail("--shard expects i/N with 0 <= i < N, got '" + *shard +
                  "'");
    }
  }

  auto world = LoadWorld(*dir);
  if (!world.ok()) return Fail(world.status().ToString());
  auto store = embedding::LoadEmbeddingStore(*model_path);
  if (!store.ok()) return Fail(store.status().ToString());

  // Installed before the first publish so an early SIGINT still tears
  // down through ResultCache/snapshot destructors.
  InstallStopHandlers();

  serving::SnapshotBuilder builder(
      store.value(), world->split->test_events(),
      world->dataset.num_users(), snapshot_options);
  if (const Status s = serving::ValidateStoreShape(store.value(), builder);
      !s.ok()) {
    return Fail(s.ToString());
  }
  serving::RecommendationService service(service_options);
  service.Publish(builder.BuildNext());

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
    iq.journal_path = *ingest_dir + "/journal";
    iq.checkpoint_base = *ingest_dir + "/checkpoint";
    ingest.emplace(&service, &builder, iq);
    if (const Status s = ingest->Start(); !s.ok()) {
      return Fail("ingestion recovery: " + s.ToString());
    }
    std::printf("ingestion on: journal=%s replayed=%llu%s\n",
                iq.journal_path.c_str(),
                static_cast<unsigned long long>(ingest->replayed()),
                ingest->recovered_clean() ? "" : " (torn tail dropped)");
  }

  net::NetServer server(&service, net_options,
                        ingest ? &*ingest : nullptr);
  if (const Status s = server.Start(); !s.ok()) {
    return Fail(s.ToString());
  }
  g_net_server.store(&server, std::memory_order_relaxed);
  // A signal delivered before the server pointer was published only
  // set g_stop; convert it into a drain now.
  if (g_stop.load(std::memory_order_relaxed)) server.RequestDrain();
  std::printf("serving %zu events to %u users on %s:%u (reactors=%u, "
              "workers=%u, max-in-flight=%u); SIGINT/SIGTERM drains and "
              "exits\n",
              builder.event_pool().size(), world->dataset.num_users(),
              net_options.listen_address.c_str(), server.port(),
              std::max(1u, net_options.num_reactors),
              service_options.num_workers, net_options.max_in_flight);

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
    reload_thread = std::thread([&] {
      serving::ModelReloader reloader(&service, &builder, {});
      auto next = std::chrono::steady_clock::now() + reload_interval;
      while (server.running() &&
             !g_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          continue;
        }
        next = std::chrono::steady_clock::now() + reload_interval;
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
  std::thread stats_thread;
  if (stats_interval.count() > 0) {
    stats_thread = std::thread([&] {
      auto next = std::chrono::steady_clock::now() + stats_interval;
      while (server.running() &&
             !g_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          continue;
        }
        next = std::chrono::steady_clock::now() + stats_interval;
        DumpMetrics(&service);
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
                  service.metrics()
                      ->Snapshot()
                      .Find("gemrec_net_accepted_total")
                      ->counter));
  DumpMetrics(&service);
  return 0;
}

/// `gemrec coordinate --shards host:p1,host:p2 --listen host:port` —
/// the scatter-gather tier: a CoordinatorBackend (fan-out on its router
/// thread + TA-bounded top-k merge) behind the same NetServer front-end
/// that `gemrec serve --listen` uses, speaking the same wire protocol.
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

  net::ServerOptions net_options;
  uint16_t port = 0;
  if (const Status s = net::ParseHostPort(
          *listen_spec, &net_options.listen_address, &port);
      !s.ok()) {
    return Fail(s.ToString());
  }
  net_options.port = port;
  net_options.max_in_flight = args.GetInt<uint32_t>("max-in-flight", 256);
  net_options.idle_timeout = std::chrono::milliseconds(
      args.GetInt<uint32_t>("idle-timeout-ms", 60000));
  net_options.num_reactors = args.GetInt<uint32_t>("reactors", 1);

  shard::RouterOptions router_options;
  router_options.shard_deadline = std::chrono::milliseconds(
      args.GetInt<uint32_t>("shard-deadline-ms", 250));
  router_options.breaker_threshold =
      args.GetInt<uint32_t>("breaker-threshold", 3);
  router_options.breaker_backoff = std::chrono::milliseconds(
      args.GetInt<uint32_t>("breaker-backoff-ms", 250));
  if (!args.error().empty()) return Fail(args.error());
  shard::CoordinatorBackend coordinator(endpoints, router_options);
  if (const Status s = coordinator.Start(); !s.ok()) {
    return Fail(s.ToString());
  }

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
                  router_options.shard_deadline.count()),
              router_options.breaker_threshold);
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
    const std::string_view spec = *attend;
    const auto colon = spec.find(':');
    ebsn::UserId user = 0;
    ebsn::EventId event = 0;
    if (colon == std::string_view::npos ||
        !ParseUnsigned(spec.substr(0, colon), &user) ||
        !ParseUnsigned(spec.substr(colon + 1), &event)) {
      return Fail("--attend expects USER:EVENT, got '" + *attend + "'");
    }
    outcome = client.value()->Attend(user, event, args.Has("new-user"));
  } else if (const auto event_arg = args.Get("new-event");
             event_arg && *event_arg != "true") {
    const auto dir = args.Get("data");
    if (!dir) return Fail("--new-event requires --data for signals");
    const auto event = args.GetInt<ebsn::EventId>("new-event", 0);
    if (!args.error().empty()) return Fail(args.error());
    auto world = LoadWorld(*dir);
    if (!world.ok()) return Fail(world.status().ToString());
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
