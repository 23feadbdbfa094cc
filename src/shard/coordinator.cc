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
  // A zero deadline would mean "no timeout" to the socket layer and a
  // zero poll timeout to the router. The connect is the one blocking
  // socket call; every send and receive on a shard is non-blocking.
  options_.shard_deadline =
      std::max(options_.shard_deadline, std::chrono::milliseconds(1));
  client_options_.connect_timeout = options_.shard_deadline;
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
  // Connect first, install under the mutex: no connect holds it.
  std::vector<Result<std::unique_ptr<net::Client>>> clients;
  for (const ShardState& shard : shards_) {
    clients.push_back(net::Client::Connect(
        shard.endpoint.host, shard.endpoint.port, client_options_));
  }
  const auto now = std::chrono::steady_clock::now();
  size_t connected = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    if (clients[i].ok()) {
      InstallLocked(i, std::move(clients[i]).value());
      ++connected;
      continue;
    }
    ShardState& shard = shards_[i];
    GEMREC_LOG(Warning) << "shard " << i << " (" << shard.endpoint.host
                        << ":" << shard.endpoint.port
                        << ") unreachable at startup: "
                        << clients[i].status().message()
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
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
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

size_t CoordinatorBackend::InFlight() const {
  return in_flight_.load(std::memory_order_relaxed);
}

obs::MetricsRegistry* CoordinatorBackend::metrics() const {
  return registry_.get();
}

void CoordinatorBackend::Submit(Pending pending) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) {
    lock.unlock();
    Abandon(std::move(pending));
    return;
  }
  // Empty unless this fan-out, or one whose last waiting shard a failed
  // send evicted, finished here.
  std::vector<Pending> done;
  DispatchLocked(std::move(pending), std::chrono::steady_clock::now(),
                 &done);
  TakeFinishedLocked(&done);
  lock.unlock();
  Finish(&done);
}

void CoordinatorBackend::InstallLocked(uint32_t index,
                                       std::unique_ptr<net::Client> client) {
  ShardState& shard = shards_[index];
  shard.client = std::move(client);
  // Tag = shard index + 1 (kWakeupTag occupies 0).
  loop_.Add(shard.client->fd(), EPOLLIN, static_cast<uint64_t>(index) + 1);
}

void CoordinatorBackend::Loop() {
  std::vector<epoll_event> events;
  std::vector<Pending> done;
  std::vector<uint32_t> reprobes;
  while (true) {
    int timeout_ms = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) break;
      timeout_ms = NextTimeoutMsLocked(std::chrono::steady_clock::now());
    }
    loop_.Poll(timeout_ms, &events);
    const auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const epoll_event& ev : events) {
        if (ev.data.u64 == net::EventLoop::kWakeupTag) {
          loop_.DrainWakeup();
          continue;
        }
        const auto index = static_cast<uint32_t>(ev.data.u64 - 1);
        // A stale event for a connection evicted since the poll: the
        // fd is gone from the epoll set, but the event array may still
        // carry it.
        if (index >= shards_.size() || !shards_[index].client) continue;
        if (ev.events & ~static_cast<uint32_t>(EPOLLOUT)) {
          DrainShardLocked(index, now);
        }
        if ((ev.events & EPOLLOUT) && shards_[index].client) {
          FlushShardLocked(index, now);
        }
      }
      SweepDeadlinesLocked(now);
      TakeFinishedLocked(&done);
      for (uint32_t i = 0; i < shards_.size(); ++i) {
        if (!shards_[i].client && now >= shards_[i].reprobe_at) {
          reprobes.push_back(i);
        }
      }
    }
    Finish(&done);
    for (const uint32_t index : reprobes) Reprobe(index);
    reprobes.clear();
  }
  {
    // Submit sends nothing once closed_ is set, so the fan-outs left
    // here are the last ones.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, pending] : pending_) done.push_back(std::move(pending));
    pending_.clear();
    finished_.clear();
    for (ShardState& shard : shards_) {
      if (!shard.client) continue;
      loop_.Del(shard.client->fd());
      shard.client.reset();
    }
  }
  for (Pending& pending : done) {
    if (pending.kind == Pending::Kind::kQuery) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    Abandon(std::move(pending));
  }
}

void CoordinatorBackend::DispatchLocked(Pending pending, TimePoint now,
                                        std::vector<Pending>* done) {
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
    ShardState& shard = shards_[i];
    if (!shard.client) continue;  // breaker open: slice missing
    const bool was_queued = shard.client->queued() > 0;
    if (!shard.client->SendNonBlocking(frame_.data(), frame_.size()).ok()) {
      StrikeShardLocked(i, /*connection_broken=*/true, now);
      continue;
    }
    if (!was_queued && shard.client->queued() > 0) {
      // The socket is full: the router sends the rest once it drains.
      shard.queued_since = now;
      loop_.Mod(shard.client->fd(), EPOLLIN | EPOLLOUT,
                static_cast<uint64_t>(i) + 1);
    }
    pending.waiting[i] = 1;
    ++pending.outstanding;
  }
  if (pending.outstanding == 0) {
    // Every shard down: a query degrades immediately to an (empty)
    // typed partial result rather than an error, a stats scrape to
    // the coordinator's own registry; the breaker re-probes recover.
    done->push_back(std::move(pending));
    return;
  }
  pending_.emplace(id, std::move(pending));
}

void CoordinatorBackend::DrainShardLocked(uint32_t index, TimePoint now) {
  ShardState& shard = shards_[index];
  while (shard.client) {
    auto reply = shard.client->ReceiveAny(std::chrono::milliseconds(0));
    if (!reply.ok()) {
      if (reply.status().code() == StatusCode::kTimeout) break;
      // Transport failure (peer closed, protocol violation): the
      // connection is unusable regardless of the strike count.
      GEMREC_LOG(Warning) << "shard " << index << " connection error: "
                          << reply.status().message();
      StrikeShardLocked(index, /*connection_broken=*/true, now);
      break;
    }
    HandleReplyLocked(index, std::move(reply).value(), now);
  }
}

void CoordinatorBackend::FlushShardLocked(uint32_t index, TimePoint now) {
  ShardState& shard = shards_[index];
  const size_t before = shard.client->queued();
  if (!shard.client->FlushQueued().ok()) {
    StrikeShardLocked(index, /*connection_broken=*/true, now);
    return;
  }
  if (shard.client->queued() == 0) {
    loop_.Mod(shard.client->fd(), EPOLLIN, static_cast<uint64_t>(index) + 1);
  } else if (shard.client->queued() < before) {
    shard.queued_since = now;  // the shard still reads
  }
}

void CoordinatorBackend::HandleReplyLocked(uint32_t index,
                                           net::TaggedReply reply,
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
  CloseSlotLocked(it->first, pending, index);
}

void CoordinatorBackend::CloseSlotLocked(uint64_t id, Pending& pending,
                                         uint32_t index) {
  pending.waiting[index] = 0;
  if (--pending.outstanding == 0) finished_.push_back(id);
}

void CoordinatorBackend::SweepDeadlinesLocked(TimePoint now) {
  // Mark misses and collect the shards struck, WITHOUT evicting
  // mid-iteration (EvictShardLocked walks the same map).
  std::vector<uint32_t> struck;
  for (auto& [id, pending] : pending_) {
    if (now < pending.sent_at + options_.shard_deadline) continue;
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      if (!pending.waiting[i]) continue;
      deadline_misses_total_->Increment();
      struck.push_back(i);
      CloseSlotLocked(id, pending, i);
    }
  }
  for (const uint32_t index : struck) {
    StrikeShardLocked(index, /*connection_broken=*/false, now);
  }
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    const ShardState& shard = shards_[i];
    if (shard.client && shard.client->queued() > 0 &&
        now >= shard.queued_since + options_.shard_deadline) {
      // The shard read none of its remainder for a whole deadline: the
      // connection is as good as gone.
      StrikeShardLocked(i, /*connection_broken=*/true, now);
    }
  }
}

void CoordinatorBackend::StrikeShardLocked(uint32_t index,
                                           bool connection_broken,
                                           TimePoint now) {
  ShardState& shard = shards_[index];
  if (!shard.client) return;
  ++shard.consecutive_failures;
  if (connection_broken ||
      shard.consecutive_failures >= options_.breaker_threshold) {
    EvictShardLocked(index, now);
  }
}

void CoordinatorBackend::EvictShardLocked(uint32_t index, TimePoint now) {
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
    if (pending.waiting[index]) CloseSlotLocked(id, pending, index);
  }
}

void CoordinatorBackend::Reprobe(uint32_t index) {
  // Only this thread connects a shard whose breaker is open, and the
  // endpoint never changes, so the connect needs no lock.
  const ShardEndpoint& endpoint = shards_[index].endpoint;
  auto client =
      net::Client::Connect(endpoint.host, endpoint.port, client_options_);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  ShardState& shard = shards_[index];
  if (client.ok()) {
    InstallLocked(index, std::move(client).value());
    shard.consecutive_failures = 0;
    shard.backoff = options_.breaker_backoff;
    reconnects_total_->Increment();
    GEMREC_LOG(Info) << "shard " << index << " breaker closed (re-probe "
                     << "succeeded)";
  } else {
    shard.backoff = std::min(shard.backoff * kBreakerBackoffMultiplier,
                             kBreakerBackoffMax);
    shard.reprobe_at = std::chrono::steady_clock::now() + shard.backoff;
  }
}

void CoordinatorBackend::TakeFinishedLocked(std::vector<Pending>* done) {
  for (const uint64_t id : finished_) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    done->push_back(std::move(it->second));
    pending_.erase(it);
  }
  finished_.clear();
}

void CoordinatorBackend::Finish(std::vector<Pending>* done) {
  for (Pending& pending : *done) Complete(std::move(pending));
  done->clear();
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

int CoordinatorBackend::NextTimeoutMsLocked(TimePoint now) const {
  // Never past one deadline from now: a fan-out registered while the
  // router sleeps is due no sooner, so it needs no wakeup.
  auto nearest = now + options_.shard_deadline;
  for (const auto& [id, pending] : pending_) {
    nearest = std::min(nearest, pending.sent_at + options_.shard_deadline);
  }
  for (const ShardState& shard : shards_) {
    if (!shard.client) {
      nearest = std::min(nearest, shard.reprobe_at);
    } else if (shard.client->queued() > 0) {
      nearest = std::min(nearest, shard.queued_since + options_.shard_deadline);
    }
  }
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      nearest - now)
                      .count();
  if (ms <= 0) return 0;
  // +1 rounds up so a deadline 0.4ms away does not busy-spin.
  return static_cast<int>(ms + 1);
}

}  // namespace gemrec::shard
