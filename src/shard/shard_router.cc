#include "shard/shard_router.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "net/server.h"

namespace gemrec::shard {
namespace {

/// Failed-slot answer for shard `index` (slice missing from the merge).
ShardAnswer FailedAnswer(uint32_t index) {
  ShardAnswer answer;
  answer.shard = index;
  answer.ok = false;
  return answer;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

}  // namespace

Status ParseShardEndpoints(const std::string& spec,
                           std::vector<ShardEndpoint>* out) {
  out->clear();
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t comma = spec.find(',', begin);
    if (comma == std::string::npos) comma = spec.size();
    const std::string piece = spec.substr(begin, comma - begin);
    if (piece.empty()) {
      return Status::InvalidArgument("empty shard endpoint in '" + spec +
                                     "'");
    }
    ShardEndpoint endpoint;
    GEMREC_RETURN_IF_ERROR(
        net::ParseHostPort(piece, &endpoint.host, &endpoint.port));
    out->push_back(std::move(endpoint));
    begin = comma + 1;
  }
  if (out->empty()) {
    return Status::InvalidArgument("no shard endpoints in '" + spec + "'");
  }
  return Status::Ok();
}

ShardRouter::ShardRouter(std::vector<ShardEndpoint> shards,
                         const RouterOptions& options,
                         obs::MetricsRegistry* registry)
    : options_(options), registry_(registry) {
  GEMREC_CHECK(!shards.empty()) << "router needs at least one shard";
  GEMREC_CHECK(registry_ != nullptr);
  options_.breaker_threshold = std::max(1u, options_.breaker_threshold);
  if (options_.breaker_backoff.count() <= 0) {
    options_.breaker_backoff = std::chrono::milliseconds(1);
  }
  shards_.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    ShardState state;
    state.endpoint = std::move(shards[i]);
    state.backoff = options_.breaker_backoff;
    state.rpc_us = registry_->GetHistogram(
        "gemrec_shard_rpc_us{shard=\"" + std::to_string(i) + "\"}",
        "Coordinator-observed per-shard RPC latency (send to decoded "
        "reply), microseconds.");
    shards_.push_back(std::move(state));
  }
  queries_total_ = registry_->GetCounter(
      "gemrec_shard_queries_total",
      "Queries fanned out by the shard coordinator.");
  partial_results_total_ = registry_->GetCounter(
      "gemrec_shard_partial_results_total",
      "Merged responses missing at least one shard's slice (deadline "
      "miss, breaker-open or dead shard).");
  deadline_misses_total_ = registry_->GetCounter(
      "gemrec_shard_deadline_misses_total",
      "Per-shard answers that missed the coordinator's shard_deadline.");
  evictions_total_ = registry_->GetCounter(
      "gemrec_shard_evictions_total",
      "Breaker openings: shard connections dropped after consecutive "
      "failures.");
  reconnects_total_ = registry_->GetCounter(
      "gemrec_shard_reconnects_total",
      "Successful breaker re-probes (shard connections re-established).");
}

ShardRouter::~ShardRouter() { Stop(); }

Status ShardRouter::Start() {
  GEMREC_CHECK(!started_) << "ShardRouter started twice";
  const auto now = std::chrono::steady_clock::now();
  size_t connected = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = shards_[i];
    auto client = net::Client::Connect(shard.endpoint.host,
                                       shard.endpoint.port, options_.client);
    if (client.ok()) {
      shard.client = std::move(client).value();
      ++connected;
    } else {
      GEMREC_LOG(Warning) << "shard " << i << " ("
                          << shard.endpoint.host << ":"
                          << shard.endpoint.port
                          << ") unreachable at startup: "
                          << client.status().message()
                          << "; breaker open, will re-probe";
      shard.evicted = true;
      shard.consecutive_failures = options_.breaker_threshold;
      shard.reprobe_at = now + shard.backoff;
    }
  }
  if (connected == 0) {
    return Status::IoError("no shard reachable at startup");
  }
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].client) RegisterClientFd(i);
  }
  thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return Status::Ok();
}

void ShardRouter::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(inbox_.mu);
    if (inbox_.closed) return;
    inbox_.closed = true;
  }
  loop_.Wakeup();
  if (thread_.joinable()) thread_.join();
}

void ShardRouter::SubmitQuery(const serving::QueryRequest& request,
                              QueryCallback callback) {
  {
    std::lock_guard<std::mutex> lock(inbox_.mu);
    if (!inbox_.closed) {
      inbox_.queries.emplace_back(request, std::move(callback));
      loop_.Wakeup();
      return;
    }
  }
  serving::QueryResponse response;
  response.code = serving::ResponseCode::kShuttingDown;
  callback(std::move(response));
}

void ShardRouter::SubmitStats(StatsCallback callback) {
  {
    std::lock_guard<std::mutex> lock(inbox_.mu);
    if (!inbox_.closed) {
      inbox_.stats.push_back(std::move(callback));
      loop_.Wakeup();
      return;
    }
  }
  callback(std::vector<std::optional<obs::MetricsSnapshot>>(
      shards_.size(), std::nullopt));
}

size_t ShardRouter::QueueDepth() const {
  auto* self = const_cast<ShardRouter*>(this);
  std::lock_guard<std::mutex> lock(self->inbox_.mu);
  return inbox_.queries.size() + inbox_.stats.size();
}

size_t ShardRouter::InFlight() const {
  return in_flight_.load(std::memory_order_relaxed);
}

void ShardRouter::RegisterClientFd(uint32_t index) {
  // Tag = shard index + 1 (kWakeupTag occupies 0).
  loop_.Add(shards_[index].client->fd(), EPOLLIN,
            static_cast<uint64_t>(index) + 1);
}

void ShardRouter::UnregisterClientFd(uint32_t index) {
  loop_.Del(shards_[index].client->fd());
}

void ShardRouter::Loop() {
  std::vector<epoll_event> events;
  bool stopping = false;
  while (true) {
    auto now = std::chrono::steady_clock::now();
    loop_.Poll(NextTimeoutMs(now), &events);
    now = std::chrono::steady_clock::now();
    for (const epoll_event& ev : events) {
      if (ev.data.u64 == net::EventLoop::kWakeupTag) {
        loop_.DrainWakeup();
        continue;
      }
      const auto index = static_cast<uint32_t>(ev.data.u64 - 1);
      // A stale event for a connection evicted earlier this batch:
      // the fd is gone from the epoll set, but the event array may
      // still carry it.
      if (index >= shards_.size() || !shards_[index].client) continue;
      DrainShard(index, now);
    }
    DrainInbox(now);
    SweepDeadlines(now);
    SweepReprobes(now);
    {
      std::lock_guard<std::mutex> lock(inbox_.mu);
      stopping = inbox_.closed && inbox_.queries.empty() &&
                 inbox_.stats.empty();
    }
    if (stopping) break;
  }
  // Shutdown: every pending query gets a typed kShuttingDown, every
  // stats fan-out completes with what it has.
  finished_.clear();
  for (auto& [id, query] : pending_) {
    serving::QueryResponse response;
    response.code = serving::ResponseCode::kShuttingDown;
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    query.callback(std::move(response));
  }
  pending_.clear();
  for (auto& [id, stats] : pending_stats_) {
    stats.callback(std::move(stats.snapshots));
  }
  pending_stats_.clear();
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].client) {
      UnregisterClientFd(i);
      shards_[i].client.reset();
    }
  }
}

void ShardRouter::DrainInbox(std::chrono::steady_clock::time_point now) {
  std::vector<std::pair<serving::QueryRequest, QueryCallback>> queries;
  std::vector<StatsCallback> stats;
  {
    std::lock_guard<std::mutex> lock(inbox_.mu);
    queries.swap(inbox_.queries);
    stats.swap(inbox_.stats);
  }
  for (auto& [request, callback] : queries) {
    DispatchQuery(std::move(request), std::move(callback), now);
  }
  for (auto& callback : stats) {
    DispatchStats(std::move(callback), now);
  }
}

void ShardRouter::DispatchQuery(serving::QueryRequest request,
                                QueryCallback callback,
                                std::chrono::steady_clock::time_point now) {
  queries_total_->Increment();
  const uint64_t id = next_id_++;
  PendingQuery query;
  query.request = request;
  query.callback = std::move(callback);
  query.answers.resize(shards_.size());
  query.waiting.assign(shards_.size(), 0);
  query.sent_at.resize(shards_.size());
  query.deadline.resize(shards_.size());

  for (uint32_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = shards_[i];
    query.answers[i] = FailedAnswer(i);
    if (!shard.client) continue;  // breaker open: slice missing
    const Status sent = shard.client->SendTagged(request, id);
    if (!sent.ok()) {
      StrikeShard(i, /*connection_broken=*/true, now);
      continue;
    }
    query.waiting[i] = 1;
    query.sent_at[i] = now;
    query.deadline[i] = now + options_.shard_deadline;
    ++query.outstanding;
  }

  if (query.outstanding == 0) {
    // Every shard down: degrade immediately to an (empty) typed
    // partial result rather than erroring — stats/answers from zero
    // shards is still an answer, and the breaker re-probes recover.
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    CompleteQuery(id, std::move(query));
    return;
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  pending_.emplace(id, std::move(query));
}

void ShardRouter::DispatchStats(StatsCallback callback,
                                std::chrono::steady_clock::time_point now) {
  const uint64_t id = next_id_++;
  PendingStats stats;
  stats.callback = std::move(callback);
  stats.snapshots.assign(shards_.size(), std::nullopt);
  stats.waiting.assign(shards_.size(), 0);
  stats.deadline.resize(shards_.size());

  for (uint32_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = shards_[i];
    if (!shard.client) continue;
    const Status sent = shard.client->SendStatsRequest(id);
    if (!sent.ok()) {
      StrikeShard(i, /*connection_broken=*/true, now);
      continue;
    }
    stats.waiting[i] = 1;
    stats.deadline[i] = now + options_.shard_deadline;
    ++stats.outstanding;
  }

  if (stats.outstanding == 0) {
    stats.callback(std::move(stats.snapshots));
    return;
  }
  pending_stats_.emplace(id, std::move(stats));
}

void ShardRouter::DrainShard(uint32_t index,
                             std::chrono::steady_clock::time_point now) {
  ShardState& shard = shards_[index];
  while (shard.client) {
    auto reply = shard.client->ReceiveAny(std::chrono::milliseconds(0));
    if (!reply.ok()) {
      if (reply.status().code() == StatusCode::kTimeout) break;
      // Transport failure (peer closed, protocol violation): the
      // connection is unusable regardless of the strike count.
      GEMREC_LOG(Warning) << "shard " << index << " connection error: "
                          << reply.status().message();
      StrikeShard(index, /*connection_broken=*/true, now);
      break;
    }
    HandleReply(index, std::move(reply).value(), now);
  }
  CompleteFinished();
}

void ShardRouter::HandleReply(uint32_t index, net::TaggedReply reply,
                              std::chrono::steady_clock::time_point now) {
  ShardState& shard = shards_[index];
  // Any decoded reply proves the shard alive and keeps the breaker
  // closed — even a typed error (an OVERLOADED shard is healthy, just
  // shedding).
  shard.consecutive_failures = 0;

  auto query_it = pending_.find(reply.frame_id);
  if (query_it != pending_.end()) {
    PendingQuery& query = query_it->second;
    if (!query.waiting[index]) return;  // duplicate/stale; drop
    query.waiting[index] = 0;
    --query.outstanding;
    shard.rpc_us->Record(ElapsedUs(query.sent_at[index], now));
    ShardAnswer& answer = query.answers[index];
    if (reply.is_stats) {
      // A stats frame answering a query id would be a server bug;
      // treat the slot as failed rather than trusting it.
      answer.ok = false;
    } else if (reply.outcome.ok) {
      answer.ok = true;
      answer.items = std::move(reply.outcome.response.items);
      answer.ta_bound = reply.outcome.response.ta_bound;
      answer.epoch = reply.outcome.response.epoch;
    } else {
      // A typed refusal: kBadRequest and kOverloaded answer the whole
      // merge; any other error (a draining shard, say) only leaves the
      // slice missing.
      answer.ok = false;
      if (reply.outcome.error == net::ErrorCode::kBadRequest) {
        answer.code = serving::ResponseCode::kBadRequest;
      } else if (reply.outcome.error == net::ErrorCode::kOverloaded) {
        answer.code = serving::ResponseCode::kOverloaded;
      }
    }
    if (query.outstanding == 0) finished_.push_back(query_it->first);
    return;
  }

  auto stats_it = pending_stats_.find(reply.frame_id);
  if (stats_it != pending_stats_.end()) {
    PendingStats& stats = stats_it->second;
    if (!stats.waiting[index]) return;
    stats.waiting[index] = 0;
    --stats.outstanding;
    if (reply.is_stats) {
      stats.snapshots[index] = std::move(reply.stats);
    }
    if (stats.outstanding == 0) finished_.push_back(stats_it->first);
    return;
  }
  // Late reply for a query already completed (deadline fired first):
  // nothing to do — the RPC histogram only tracks in-deadline answers.
}

void ShardRouter::SweepDeadlines(
    std::chrono::steady_clock::time_point now) {
  // Phase 1: mark misses and collect the shards struck, WITHOUT
  // evicting mid-iteration (EvictShard walks the same maps).
  std::vector<uint32_t> struck;
  auto miss = [&](std::vector<uint8_t>& waiting,
                  const std::vector<std::chrono::steady_clock::time_point>&
                      deadline,
                  size_t& outstanding, uint64_t id) {
    for (uint32_t i = 0; i < waiting.size(); ++i) {
      if (!waiting[i] || now < deadline[i]) continue;
      waiting[i] = 0;
      --outstanding;
      deadline_misses_total_->Increment();
      struck.push_back(i);
      if (outstanding == 0) finished_.push_back(id);
    }
  };
  for (auto& [id, query] : pending_) {
    miss(query.waiting, query.deadline, query.outstanding, id);
  }
  for (auto& [id, stats] : pending_stats_) {
    miss(stats.waiting, stats.deadline, stats.outstanding, id);
  }
  CompleteFinished();
  for (const uint32_t index : struck) {
    StrikeShard(index, /*connection_broken=*/false, now);
  }
}

void ShardRouter::StrikeShard(uint32_t index, bool connection_broken,
                              std::chrono::steady_clock::time_point now) {
  ShardState& shard = shards_[index];
  if (shard.evicted) return;
  ++shard.consecutive_failures;
  if (connection_broken ||
      shard.consecutive_failures >= options_.breaker_threshold) {
    EvictShard(index, now);
  }
}

void ShardRouter::EvictShard(uint32_t index,
                             std::chrono::steady_clock::time_point now) {
  ShardState& shard = shards_[index];
  if (shard.evicted && !shard.client) return;
  evictions_total_->Increment();
  GEMREC_LOG(Warning) << "shard " << index << " breaker open after "
                      << shard.consecutive_failures
                      << " consecutive failure(s); re-probe in "
                      << shard.backoff.count() << "ms";
  if (shard.client) {
    UnregisterClientFd(index);
    shard.client.reset();
  }
  shard.evicted = true;
  shard.reprobe_at = now + shard.backoff;

  // Every slot still waiting on this shard fails now — queries keep
  // their other shards' answers and degrade to partial.
  for (auto& [id, query] : pending_) {
    if (!query.waiting[index]) continue;
    query.waiting[index] = 0;
    --query.outstanding;
    if (query.outstanding == 0) finished_.push_back(id);
  }
  for (auto& [id, stats] : pending_stats_) {
    if (!stats.waiting[index]) continue;
    stats.waiting[index] = 0;
    --stats.outstanding;
    if (stats.outstanding == 0) finished_.push_back(id);
  }
  CompleteFinished();
}

void ShardRouter::SweepReprobes(std::chrono::steady_clock::time_point now) {
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = shards_[i];
    if (!shard.evicted || now < shard.reprobe_at) continue;
    auto client = net::Client::Connect(shard.endpoint.host,
                                       shard.endpoint.port, options_.client);
    if (client.ok()) {
      shard.client = std::move(client).value();
      shard.evicted = false;
      shard.consecutive_failures = 0;
      shard.backoff = options_.breaker_backoff;
      RegisterClientFd(i);
      reconnects_total_->Increment();
      GEMREC_LOG(Info) << "shard " << i << " breaker closed (re-probe "
                       << "succeeded)";
    } else {
      shard.backoff = std::min(
          std::chrono::milliseconds(static_cast<int64_t>(
              static_cast<double>(shard.backoff.count()) *
              options_.breaker_backoff_multiplier)),
          options_.breaker_backoff_max);
      shard.reprobe_at = now + shard.backoff;
    }
  }
}

void ShardRouter::CompleteFinished() {
  while (!finished_.empty()) {
    const uint64_t id = finished_.back();
    finished_.pop_back();
    auto query_it = pending_.find(id);
    if (query_it != pending_.end()) {
      PendingQuery query = std::move(query_it->second);
      pending_.erase(query_it);
      CompleteQuery(id, std::move(query));
      continue;
    }
    auto stats_it = pending_stats_.find(id);
    if (stats_it != pending_stats_.end()) {
      PendingStats stats = std::move(stats_it->second);
      pending_stats_.erase(stats_it);
      CompleteStats(id, std::move(stats));
    }
  }
}

void ShardRouter::CompleteQuery(uint64_t id, PendingQuery query) {
  (void)id;
  MergeResult merged = MergeTopK(query.answers, query.request.n);
  if (merged.partial) partial_results_total_->Increment();
  serving::QueryResponse response;
  response.items = std::move(merged.items);
  response.epoch = merged.epoch;
  response.code = merged.code;
  response.partial = merged.partial;
  response.ta_bound = merged.ta_bound;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  query.callback(std::move(response));
}

void ShardRouter::CompleteStats(uint64_t id, PendingStats stats) {
  (void)id;
  stats.callback(std::move(stats.snapshots));
}

int ShardRouter::NextTimeoutMs(
    std::chrono::steady_clock::time_point now) const {
  auto nearest = std::chrono::steady_clock::time_point::max();
  for (const auto& [id, query] : pending_) {
    for (uint32_t i = 0; i < query.waiting.size(); ++i) {
      if (query.waiting[i]) nearest = std::min(nearest, query.deadline[i]);
    }
  }
  for (const auto& [id, stats] : pending_stats_) {
    for (uint32_t i = 0; i < stats.waiting.size(); ++i) {
      if (stats.waiting[i]) nearest = std::min(nearest, stats.deadline[i]);
    }
  }
  for (const ShardState& shard : shards_) {
    if (shard.evicted) nearest = std::min(nearest, shard.reprobe_at);
  }
  if (nearest == std::chrono::steady_clock::time_point::max()) return -1;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      nearest - now)
                      .count();
  if (ms <= 0) return 0;
  // +1 rounds up so a deadline 0.4ms away does not busy-spin.
  return static_cast<int>(std::min<int64_t>(ms + 1, 60'000));
}

}  // namespace gemrec::shard
