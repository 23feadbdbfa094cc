#include "shard/coordinator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/server.h"
#include "shard/merger.h"

namespace gemrec::shard {
namespace {

/// Growth of the re-probe delay per failed re-probe, and its cap.
constexpr int kBreakerBackoffMultiplier = 2;
constexpr std::chrono::milliseconds kBreakerBackoffMax{5000};

uint64_t ElapsedUs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

/// Shard `index`'s slice of a query merge; a missing reply, or a
/// stats frame answering a query id (a server bug), is a failed slot.
ShardAnswer ToAnswer(uint32_t index, std::optional<net::TaggedReply> reply) {
  ShardAnswer answer;
  answer.shard = index;
  answer.ok = false;
  if (!reply.has_value() || reply->is_stats) return answer;
  serving::QueryResponse& response = reply->outcome.response;
  if (reply->outcome.ok) {
    answer.ok = true;
    answer.items = std::move(response.items);
    answer.ta_bound = response.ta_bound;
    answer.epoch = response.epoch;
  } else if (reply->outcome.error == net::ErrorCode::kBadRequest) {
    // A typed refusal: kBadRequest and kOverloaded answer the whole
    // merge; any other error (a draining shard, say) only leaves the
    // slice missing.
    answer.code = serving::ResponseCode::kBadRequest;
  } else if (reply->outcome.error == net::ErrorCode::kOverloaded) {
    answer.code = serving::ResponseCode::kOverloaded;
  }
  return answer;
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

CoordinatorBackend::CoordinatorBackend(std::vector<ShardEndpoint> shards,
                                       const RouterOptions& options)
    : registry_(std::make_unique<obs::MetricsRegistry>()),
      options_(options) {
  GEMREC_CHECK(!shards.empty()) << "coordinator needs at least one shard";
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

CoordinatorBackend::~CoordinatorBackend() { Stop(); }

Status CoordinatorBackend::Start() {
  GEMREC_CHECK(!started_) << "CoordinatorBackend started twice";
  const auto now = std::chrono::steady_clock::now();
  size_t connected = 0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = shards_[i];
    const Status status = ConnectShard(i);
    if (status.ok()) {
      ++connected;
      continue;
    }
    GEMREC_LOG(Warning) << "shard " << i << " (" << shard.endpoint.host
                        << ":" << shard.endpoint.port
                        << ") unreachable at startup: " << status.message()
                        << "; breaker open, will re-probe";
    shard.consecutive_failures = options_.breaker_threshold;
    shard.reprobe_at = now + shard.backoff;
  }
  if (connected == 0) {
    return Status::IoError("no shard reachable at startup");
  }
  thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return Status::Ok();
}

void CoordinatorBackend::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(inbox_.mu);
    if (inbox_.closed) return;
    inbox_.closed = true;
  }
  loop_.Wakeup();
  if (thread_.joinable()) thread_.join();
}

void CoordinatorBackend::SubmitAsync(const serving::QueryRequest& request,
                                     ResponseCallback callback) {
  Pending pending;
  pending.kind = Pending::Kind::kQuery;
  pending.request = request;
  pending.on_query = std::move(callback);
  Submit(std::move(pending));
}

void CoordinatorBackend::StatsAsync(StatsCallback callback) {
  // Own counters first (registration order preserved); completion
  // appends each answering shard's rollup — ONE snapshot, so the
  // existing kStatsResponse codec (which carries arbitrary metric
  // names) ships the whole tier in one frame.
  Pending pending;
  pending.kind = Pending::Kind::kStats;
  pending.own = registry_->Snapshot();
  pending.on_stats = std::move(callback);
  Submit(std::move(pending));
}

size_t CoordinatorBackend::QueueDepth() const {
  std::lock_guard<std::mutex> lock(inbox_.mu);
  return inbox_.submitted.size();
}

size_t CoordinatorBackend::InFlight() const {
  return in_flight_.load(std::memory_order_relaxed);
}

obs::MetricsRegistry* CoordinatorBackend::metrics() const {
  return registry_.get();
}

void CoordinatorBackend::Submit(Pending pending) {
  {
    std::lock_guard<std::mutex> lock(inbox_.mu);
    if (!inbox_.closed) {
      // Only the push into an empty inbox wakes the router: it empties
      // the inbox after draining its wakeup, so a later push finds the
      // earlier one's tick still pending or its batch not yet taken.
      const bool was_empty = inbox_.submitted.empty();
      inbox_.submitted.push_back(std::move(pending));
      if (was_empty) loop_.Wakeup();
      return;
    }
  }
  Abandon(std::move(pending));
}

Status CoordinatorBackend::ConnectShard(uint32_t index) {
  ShardState& shard = shards_[index];
  // The router thread blocks in connect and send, so both are bounded
  // by the shard deadline; replies are only read without blocking.
  // (A zero timeout would mean "no timeout" to the socket layer.)
  net::ClientOptions client_options;
  client_options.connect_timeout =
      std::max(options_.shard_deadline, std::chrono::milliseconds(1));
  client_options.io_timeout = client_options.connect_timeout;
  GEMREC_ASSIGN_OR_RETURN(
      shard.client, net::Client::Connect(shard.endpoint.host,
                                         shard.endpoint.port,
                                         client_options));
  // Tag = shard index + 1 (kWakeupTag occupies 0).
  loop_.Add(shard.client->fd(), EPOLLIN, static_cast<uint64_t>(index) + 1);
  return Status::Ok();
}

void CoordinatorBackend::Loop() {
  std::vector<epoll_event> events;
  std::vector<Pending> submitted;
  bool closed = false;
  while (!closed) {
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
    {
      // Submit refuses new work once closed, so the batch claimed
      // together with `closed` is the last one.
      std::lock_guard<std::mutex> lock(inbox_.mu);
      submitted.swap(inbox_.submitted);
      closed = inbox_.closed;
    }
    for (Pending& pending : submitted) Dispatch(std::move(pending), now);
    submitted.clear();
    SweepDeadlines(now);
    SweepReprobes(now);
  }
  finished_.clear();
  in_flight_.store(0, std::memory_order_relaxed);
  for (auto& [id, pending] : pending_) Abandon(std::move(pending));
  pending_.clear();
  for (ShardState& shard : shards_) {
    if (!shard.client) continue;
    loop_.Del(shard.client->fd());
    shard.client.reset();
  }
}

void CoordinatorBackend::Dispatch(Pending pending, TimePoint now) {
  const bool query = pending.kind == Pending::Kind::kQuery;
  if (query) {
    queries_total_->Increment();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t id = next_id_++;
  pending.replies.resize(shards_.size());
  pending.waiting.assign(shards_.size(), 0);
  pending.sent_at = now;
  frame_.clear();
  if (query) {
    net::AppendQueryRequestFrame(pending.request, net::FrameTag{true, id},
                                 &frame_);
  } else {
    net::AppendStatsRequestFrame(net::FrameTag{true, id}, &frame_);
  }
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    net::Client* client = shards_[i].client.get();
    if (client == nullptr) continue;  // breaker open: slice missing
    const Status sent = client->SendAll(frame_.data(), frame_.size());
    if (!sent.ok()) {
      StrikeShard(i, /*connection_broken=*/true, now);
      continue;
    }
    pending.waiting[i] = 1;
    ++pending.outstanding;
  }
  if (pending.outstanding == 0) {
    // Every shard down: a query degrades immediately to an (empty)
    // typed partial result rather than an error, a stats scrape to
    // the coordinator's own registry; the breaker re-probes recover.
    Complete(std::move(pending));
    return;
  }
  pending_.emplace(id, std::move(pending));
}

void CoordinatorBackend::DrainShard(uint32_t index, TimePoint now) {
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

void CoordinatorBackend::HandleReply(uint32_t index, net::TaggedReply reply,
                                     TimePoint now) {
  // Any decoded reply proves the shard alive and keeps the breaker
  // closed — even a typed error (an OVERLOADED shard is healthy, just
  // shedding).
  shards_[index].consecutive_failures = 0;
  auto it = pending_.find(reply.frame_id);
  // A late reply for a fan-out already completed (the deadline fired
  // first) or a duplicate: nothing to do — the RPC histogram only
  // tracks in-deadline answers.
  if (it == pending_.end() || !it->second.waiting[index]) return;
  Pending& pending = it->second;
  if (pending.kind == Pending::Kind::kQuery) {
    shards_[index].rpc_us->Record(ElapsedUs(pending.sent_at, now));
  }
  pending.replies[index] = std::move(reply);
  CloseSlot(it->first, pending, index);
}

void CoordinatorBackend::CloseSlot(uint64_t id, Pending& pending,
                                   uint32_t index) {
  pending.waiting[index] = 0;
  if (--pending.outstanding == 0) finished_.push_back(id);
}

void CoordinatorBackend::SweepDeadlines(TimePoint now) {
  // Mark misses and collect the shards struck, WITHOUT evicting
  // mid-iteration (EvictShard walks the same map).
  std::vector<uint32_t> struck;
  for (auto& [id, pending] : pending_) {
    if (now < pending.sent_at + options_.shard_deadline) continue;
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      if (!pending.waiting[i]) continue;
      deadline_misses_total_->Increment();
      struck.push_back(i);
      CloseSlot(id, pending, i);
    }
  }
  CompleteFinished();
  for (const uint32_t index : struck) {
    StrikeShard(index, /*connection_broken=*/false, now);
  }
}

void CoordinatorBackend::StrikeShard(uint32_t index, bool connection_broken,
                                     TimePoint now) {
  ShardState& shard = shards_[index];
  if (!shard.client) return;
  ++shard.consecutive_failures;
  if (connection_broken ||
      shard.consecutive_failures >= options_.breaker_threshold) {
    EvictShard(index, now);
  }
}

void CoordinatorBackend::EvictShard(uint32_t index, TimePoint now) {
  ShardState& shard = shards_[index];
  if (!shard.client) return;
  evictions_total_->Increment();
  GEMREC_LOG(Warning) << "shard " << index << " breaker open after "
                      << shard.consecutive_failures
                      << " consecutive failure(s); re-probe in "
                      << shard.backoff.count() << "ms";
  loop_.Del(shard.client->fd());
  shard.client.reset();
  shard.reprobe_at = now + shard.backoff;

  // Every slot still waiting on this shard fails now — a fan-out keeps
  // its other shards' answers (a query degrades to partial).
  for (auto& [id, pending] : pending_) {
    if (pending.waiting[index]) CloseSlot(id, pending, index);
  }
  CompleteFinished();
}

void CoordinatorBackend::SweepReprobes(TimePoint now) {
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = shards_[i];
    if (shard.client || now < shard.reprobe_at) continue;
    if (ConnectShard(i).ok()) {
      shard.consecutive_failures = 0;
      shard.backoff = options_.breaker_backoff;
      reconnects_total_->Increment();
      GEMREC_LOG(Info) << "shard " << i << " breaker closed (re-probe "
                       << "succeeded)";
    } else {
      shard.backoff = std::min(shard.backoff * kBreakerBackoffMultiplier,
                               kBreakerBackoffMax);
      shard.reprobe_at = now + shard.backoff;
    }
  }
}

void CoordinatorBackend::CompleteFinished() {
  while (!finished_.empty()) {
    const uint64_t id = finished_.back();
    finished_.pop_back();
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    Pending pending = std::move(it->second);
    pending_.erase(it);
    Complete(std::move(pending));
  }
}

void CoordinatorBackend::Complete(Pending pending) {
  if (pending.kind == Pending::Kind::kStats) {
    obs::MetricsSnapshot merged = std::move(pending.own);
    for (size_t i = 0; i < pending.replies.size(); ++i) {
      std::optional<net::TaggedReply>& reply = pending.replies[i];
      // A query frame answering a stats id would be a server bug.
      if (!reply.has_value() || !reply->is_stats) continue;
      const std::string suffix = "{shard=\"" + std::to_string(i) + "\"}";
      for (obs::MetricValue& metric : reply->stats.metrics) {
        metric.name += suffix;
        merged.metrics.push_back(std::move(metric));
      }
    }
    pending.on_stats(std::move(merged));
    return;
  }
  std::vector<ShardAnswer> answers;
  answers.reserve(pending.replies.size());
  for (uint32_t i = 0; i < pending.replies.size(); ++i) {
    answers.push_back(ToAnswer(i, std::move(pending.replies[i])));
  }
  MergeResult merged = MergeTopK(answers, pending.request.n);
  if (merged.partial) partial_results_total_->Increment();
  serving::QueryResponse response;
  response.items = std::move(merged.items);
  response.epoch = merged.epoch;
  response.code = merged.code;
  response.partial = merged.partial;
  response.ta_bound = merged.ta_bound;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  pending.on_query(std::move(response));
}

void CoordinatorBackend::Abandon(Pending pending) {
  if (pending.kind == Pending::Kind::kStats) {
    Complete(std::move(pending));
    return;
  }
  serving::QueryResponse response;
  response.code = serving::ResponseCode::kShuttingDown;
  pending.on_query(std::move(response));
}

int CoordinatorBackend::NextTimeoutMs(TimePoint now) const {
  auto nearest = TimePoint::max();
  for (const auto& [id, pending] : pending_) {
    nearest = std::min(nearest, pending.sent_at + options_.shard_deadline);
  }
  for (const ShardState& shard : shards_) {
    if (!shard.client) nearest = std::min(nearest, shard.reprobe_at);
  }
  if (nearest == TimePoint::max()) return -1;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      nearest - now)
                      .count();
  if (ms <= 0) return 0;
  // +1 rounds up so a deadline 0.4ms away does not busy-spin.
  return static_cast<int>(std::min<int64_t>(ms + 1, 60'000));
}

}  // namespace gemrec::shard
