#include "net/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"

namespace gemrec::net {
namespace {

constexpr uint64_t kListenTag = 1;
/// Upper bound on one Poll sleep so gauge-style bookkeeping (timeout
/// sweeps, drain progress) never stalls for long.
constexpr int kMaxPollMs = 500;
/// How long an EMFILE-parked listener stays deregistered before the
/// reactor re-arms it (only reached when the spare fd could not be
/// reopened — the process is completely out of descriptors).
constexpr std::chrono::milliseconds kListenRearmDelay{100};

int ToMillisCeil(std::chrono::steady_clock::duration d) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  return static_cast<int>(std::max<int64_t>(0, ms)) +
         (d > std::chrono::milliseconds(ms) ? 1 : 0);
}

}  // namespace

Reactor::Reactor(uint32_t index, const Shared& shared)
    : index_(index), shared_(shared) {
  GEMREC_CHECK(shared_.service != nullptr);
  GEMREC_CHECK(shared_.options != nullptr);
  GEMREC_CHECK(shared_.metrics != nullptr);
  GEMREC_CHECK(shared_.total_in_flight != nullptr);
  GEMREC_CHECK(shared_.total_connections != nullptr);
}

Reactor::~Reactor() {
  if (started_) {
    RequestDrain();
    Join();
  }
}

void Reactor::Start(int listen_fd) {
  GEMREC_CHECK(!started_) << "Reactor started twice";
  GEMREC_CHECK(listen_fd >= 0);
  listen_fd_ = listen_fd;
  loop_.Add(listen_fd_, EPOLLIN, kListenTag);
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  completions_ = std::make_shared<CompletionQueue>();
  completions_->loop = &loop_;

  const std::string prefix =
      "gemrec_net_reactor" + std::to_string(index_) + "_";
  obs::MetricsRegistry* registry = shared_.service->metrics();
  owned_total_ = registry->GetCounter(
      prefix + "owned_total",
      "Connections this reactor accepted over its lifetime.");
  owned_connections_ = registry->GetGauge(
      prefix + "connections",
      "Connections currently owned by this reactor.");

  started_ = true;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { Loop(); });
}

void Reactor::RequestDrain() {
  // Only async-signal-safe operations: a lock-free atomic store and an
  // eventfd write inside Wakeup.
  drain_requested_.store(true, std::memory_order_relaxed);
  loop_.Wakeup();
}

void Reactor::WaitUntilStopped() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  stopped_cv_.wait(lock, [this] {
    return !started_ || !running_.load(std::memory_order_acquire);
  });
}

void Reactor::Join() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Reactor::CompletionQueue::Push(Completion completion) {
  std::lock_guard<std::mutex> lock(mu);
  if (closed) return;
  const bool was_empty = items.empty();
  items.push_back(std::move(completion));
  if (was_empty && std::this_thread::get_id() != loop_thread) {
    loop->Wakeup();
  }
}

Reactor::Connection* Reactor::FindConnection(uint64_t id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second.get();
}

void Reactor::Loop() {
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    completions_->loop_thread = std::this_thread::get_id();
  }
  std::vector<epoll_event> events;
  while (true) {
    auto now = std::chrono::steady_clock::now();
    if (drain_requested_.load(std::memory_order_relaxed) && !draining_) {
      EnterDrain(now);
    }
    if (draining_ &&
        (connections_.empty() || now >= drain_deadline_)) {
      break;
    }
    if (listen_parked_ && now >= listen_rearm_at_ && listen_fd_ >= 0) {
      listen_parked_ = false;
      loop_.Add(listen_fd_, EPOLLIN, kListenTag);
    }

    const int n = loop_.Poll(PollTimeoutMs(now), &events);
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == EventLoop::kWakeupTag) {
        loop_.DrainWakeup();
        continue;
      }
      if (tag == kListenTag) {
        HandleAccept();
        continue;
      }
      Connection* conn = reinterpret_cast<Connection*>(tag);
      if (events[i].events & (EPOLLHUP | EPOLLERR)) conn->dead = true;
      if (!conn->dead && (events[i].events & EPOLLIN)) {
        HandleReadable(conn);
      }
      if (!conn->dead && (events[i].events & EPOLLOUT)) {
        FlushWrites(conn);
      }
      if (conn->dead) {
        CloseConnection(conn);
      } else {
        UpdateInterest(conn);
      }
    }
    DrainCompletions();
    SweepTimeouts(std::chrono::steady_clock::now());
  }

  // Teardown: cut surviving connections (drain deadline passed or all
  // work flushed), close the completion channel so late worker
  // callbacks become no-ops, then announce the stop.
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const uint64_t id : ids) {
    if (Connection* conn = FindConnection(id)) CloseConnection(conn);
  }
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    completions_->closed = true;
    completions_->loop = nullptr;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    running_.store(false, std::memory_order_release);
  }
  stopped_cv_.notify_all();
}

void Reactor::EnterDrain(std::chrono::steady_clock::time_point now) {
  draining_ = true;
  drain_deadline_ = now + options().drain_timeout;
  if (listen_fd_ >= 0) {
    if (!listen_parked_) loop_.Del(listen_fd_);
    listen_parked_ = false;
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Reads stay alive so ping/stats probes are still answered; every
  // other frame now gets kShuttingDown from HandleFrame. In-flight
  // responses still flush, and idle connections fall to the sweep
  // immediately below.
  for (const auto& [id, conn] : connections_) {
    conn->draining = true;
  }
  SweepTimeouts(now);
}

void Reactor::HandleAccept() {
  while (listen_fd_ >= 0) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // drained
      metrics().accept_errors->Increment();
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds with a level-triggered listener: without help the
        // pending connection keeps the fd readable and the loop would
        // spin at 100% CPU re-failing accept. Burn the reserved spare
        // fd to accept + refuse the connection, then take it back.
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          spare_fd_ = -1;
          const int doomed =
              ::accept4(listen_fd_, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (doomed >= 0) ::close(doomed);
          spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          if (spare_fd_ >= 0) continue;  // keep refusing the backlog
        }
        // No spare left (another thread raced the freed slot): park
        // the listener and re-arm after a pause instead of spinning.
        GEMREC_LOG(Warning)
            << "reactor " << index_
            << " out of fds and out of spares; parking listener";
        loop_.Del(listen_fd_);
        listen_parked_ = true;
        listen_rearm_at_ =
            std::chrono::steady_clock::now() + kListenRearmDelay;
        break;
      }
      GEMREC_LOG(Warning) << "accept4: " << std::strerror(errno);
      break;
    }
    if (shared_.total_connections->load(std::memory_order_relaxed) >=
        options().max_connections) {
      metrics().conn_limit_rejects->Increment();
      GEMREC_LOG(Warning) << "connection limit "
                          << options().max_connections
                          << " reached; refusing fd " << fd;
      ::close(fd);
      continue;
    }
    shared_.total_connections->fetch_add(1, std::memory_order_relaxed);
    metrics().accepted->Increment();
    metrics().active_connections->Add(1);
    AdoptConnection(fd);
  }
}

void Reactor::AdoptConnection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options().so_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options().so_sndbuf,
                 sizeof(options().so_sndbuf));
  }
  auto conn = std::make_unique<Connection>();
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->last_activity = std::chrono::steady_clock::now();
  conn->interest = EPOLLIN;
  conn->draining = draining_;
  loop_.Add(fd, EPOLLIN, reinterpret_cast<uint64_t>(conn.get()));
  owned_total_->Increment();
  owned_connections_->Add(1);
  connections_.emplace(conn->id, std::move(conn));
}

void Reactor::HandleReadable(Connection* conn) {
  uint8_t buf[64 * 1024];
  const auto now = std::chrono::steady_clock::now();
  while (!conn->dead) {
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r == 0) {  // peer closed its write half
      conn->dead = true;
      break;
    }
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->dead = true;
      break;
    }
    metrics().bytes_received->Increment(static_cast<uint64_t>(r));
    conn->last_activity = now;
    if (const Status s =
            conn->decoder.Feed(buf, static_cast<size_t>(r));
        !s.ok()) {
      GEMREC_LOG(Debug) << "protocol error on conn " << conn->id << ": "
                        << s.ToString();
      metrics().protocol_errors->Increment();
      // One best-effort typed answer before the close: a peer speaking
      // another wire version learns why instead of seeing a bare EOF.
      // Frame id 0 — the offending frame's id cannot be trusted.
      AppendErrorFrame(ErrorCode::kBadRequest, s.message(), FrameTag{},
                       &conn->write_buf);
      FlushWrites(conn);
      conn->dead = true;
      break;
    }
    Frame frame;
    while (!conn->dead && conn->decoder.Next(&frame)) {
      HandleFrame(conn, frame);
    }
    if (r < static_cast<ssize_t>(sizeof(buf))) break;  // socket drained
  }
  // Read-timeout anchor: a partial frame's clock starts when its first
  // bytes arrive and resets once the frame completes.
  if (!conn->dead && conn->decoder.mid_frame()) {
    if (!conn->has_partial) {
      conn->has_partial = true;
      conn->partial_since = now;
    }
  } else {
    conn->has_partial = false;
  }
}

void Reactor::HandleFrame(Connection* conn, const Frame& frame) {
  const FrameTag tag = frame.tag();
  switch (frame.type) {
    case MessageType::kPing: {
      metrics().pings->Increment();
      AppendFrame(MessageType::kPong, nullptr, 0, tag, &conn->write_buf);
      AfterQueue(conn);
      return;
    }
    case MessageType::kStatsRequest: {
      if (const Status s =
              DecodeStatsRequest(frame.payload.data(), frame.payload.size());
          !s.ok()) {
        metrics().bad_requests->Increment();
        SendError(conn, ErrorCode::kBadRequest, s.message(), tag);
        return;
      }
      // Served unconditionally — no admission control, no drain
      // refusal: an operator asking "why is this server shedding /
      // draining" must get an answer from exactly that server. Routed
      // through StatsAsync because a coordinator backend must fan the
      // request out to its shards off-thread; a local service answers
      // synchronously, so the completion is drained later this same
      // loop iteration. Holds conn->in_flight (not the admission
      // budget) so a draining connection survives until the answer
      // flushes.
      metrics().stats_requests->Increment();
      ++conn->in_flight;
      const uint64_t conn_id = conn->id;
      std::shared_ptr<CompletionQueue> cq = completions_;
      shared_.service->StatsAsync(
          [cq, conn_id, tag](obs::MetricsSnapshot snapshot) {
            Completion completion;
            completion.conn_id = conn_id;
            completion.tag = tag;
            completion.is_stats = true;
            completion.stats = std::move(snapshot);
            cq->Push(std::move(completion));
          });
      return;
    }
    case MessageType::kQueryRequest: {
      metrics().requests->Increment();
      if (draining_) {
        metrics().drain_rejects->Increment();
        SendError(conn, ErrorCode::kShuttingDown, "server draining", tag);
        return;
      }
      serving::QueryRequest request;
      if (const Status s = DecodeQueryRequest(
              frame.payload.data(), frame.payload.size(), &request);
          !s.ok()) {
        metrics().bad_requests->Increment();
        SendError(conn, ErrorCode::kBadRequest, s.message(), tag);
        return;
      }
      // Admission control: the server's own budget of unanswered
      // requests (claim-then-check on the shared atomic keeps the
      // budget exact across reactors), then the service's real
      // saturation gauges. Both gates shed with a typed error the
      // client sees immediately — the request never enters a queue it
      // would wait in unboundedly.
      const uint32_t prior = shared_.total_in_flight->fetch_add(
          1, std::memory_order_relaxed);
      if (prior >= options().max_in_flight ||
          shared_.service->QueueDepth() + shared_.service->InFlight() >=
              options().max_service_saturation) {
        shared_.total_in_flight->fetch_sub(1, std::memory_order_relaxed);
        metrics().overload_sheds->Increment();
        SendError(conn, ErrorCode::kOverloaded, "server overloaded", tag);
        return;
      }
      ++conn->in_flight;
      const uint64_t conn_id = conn->id;
      // Round-trip anchor: decode time, so the histogram covers the
      // service queue wait, the search and the hop back to this thread.
      // A cache hit completes inside SubmitAsync, on this thread; its
      // answer is written by the drain at the end of this iteration.
      const auto received_at = std::chrono::steady_clock::now();
      std::shared_ptr<CompletionQueue> cq = completions_;
      shared_.service->SubmitAsync(
          request,
          [cq, conn_id, received_at, tag](serving::QueryResponse response) {
            Completion completion;
            completion.conn_id = conn_id;
            completion.response = std::move(response);
            completion.received_at = received_at;
            completion.tag = tag;
            cq->Push(std::move(completion));
          });
      return;
    }
    case MessageType::kAttendance:
    case MessageType::kNewEvent: {
      metrics().ingest_requests->Increment();
      if (draining_) {
        metrics().drain_rejects->Increment();
        SendError(conn, ErrorCode::kShuttingDown, "server draining", tag);
        return;
      }
      if (shared_.ingest == nullptr) {
        metrics().bad_requests->Increment();
        SendError(conn, ErrorCode::kBadRequest,
                  "ingestion disabled on this server", tag);
        return;
      }
      serving::IngestRecord record;
      const Status s =
          frame.type == MessageType::kAttendance
              ? DecodeAttendance(frame.payload.data(),
                                 frame.payload.size(), &record)
              : DecodeNewEvent(frame.payload.data(), frame.payload.size(),
                               &record);
      if (!s.ok()) {
        metrics().bad_requests->Increment();
        SendError(conn, ErrorCode::kBadRequest, s.message(), tag);
        return;
      }
      // Write-side admission control lives in the queue itself
      // (max_pending); a full queue answers kOverloaded immediately —
      // the fail-fast twin of the read path's in-flight budget.
      const uint64_t conn_id = conn->id;
      const auto received_at = std::chrono::steady_clock::now();
      shared_.total_in_flight->fetch_add(1, std::memory_order_relaxed);
      ++conn->in_flight;
      std::shared_ptr<CompletionQueue> cq = completions_;
      const serving::IngestAdmission admission = shared_.ingest->SubmitAsync(
          std::move(record),
          [cq, conn_id, received_at, tag](Status status, uint64_t seq) {
            Completion completion;
            completion.conn_id = conn_id;
            completion.received_at = received_at;
            completion.tag = tag;
            completion.is_ingest = true;
            completion.ingest_status = std::move(status);
            completion.ingest_seq = seq;
            cq->Push(std::move(completion));
          });
      if (admission != serving::IngestAdmission::kAccepted) {
        // The ack callback never fires for a refused submission.
        shared_.total_in_flight->fetch_sub(1, std::memory_order_relaxed);
        --conn->in_flight;
        if (admission == serving::IngestAdmission::kQueueFull) {
          metrics().overload_sheds->Increment();
          SendError(conn, ErrorCode::kOverloaded, "ingest queue full", tag);
        } else {
          metrics().drain_rejects->Increment();
          SendError(conn, ErrorCode::kShuttingDown,
                    "ingestion shutting down", tag);
        }
      }
      return;
    }
    case MessageType::kQueryResponse:
    case MessageType::kPong:
    case MessageType::kError:
    case MessageType::kStatsResponse:
    case MessageType::kIngestAck:
      break;
  }
  metrics().bad_requests->Increment();
  SendError(conn, ErrorCode::kBadRequest, "unexpected message type", tag);
}

void Reactor::SendError(Connection* conn, ErrorCode code,
                        std::string_view msg, const FrameTag& tag) {
  AppendErrorFrame(code, msg, tag, &conn->write_buf);
  AfterQueue(conn);
}

void Reactor::AfterQueue(Connection* conn) {
  FlushWrites(conn);
  if (!conn->dead && conn->pending_write() > options().max_write_buffer) {
    metrics().slow_reader_disconnects->Increment();
    conn->dead = true;
  }
}

void Reactor::FlushWrites(Connection* conn) {
  while (conn->pending_write() > 0) {
    const ssize_t w =
        ::send(conn->fd, conn->write_buf.data() + conn->write_pos,
               conn->pending_write(), MSG_NOSIGNAL);
    if (w > 0) {
      conn->write_pos += static_cast<size_t>(w);
      metrics().bytes_sent->Increment(static_cast<uint64_t>(w));
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    conn->dead = true;  // EPIPE/ECONNRESET/...
    return;
  }
  if (conn->write_pos == conn->write_buf.size()) {
    conn->write_buf.clear();
    conn->write_pos = 0;
  } else if (conn->write_pos > (64u << 10)) {
    conn->write_buf.erase(
        conn->write_buf.begin(),
        conn->write_buf.begin() + static_cast<ptrdiff_t>(conn->write_pos));
    conn->write_pos = 0;
  }
}

void Reactor::DrainCompletions() {
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    drained_.swap(completions_->items);
  }
  for (Completion& completion : drained_) {
    if (!completion.is_stats) {
      // Stats answers never claimed the admission budget.
      const uint32_t prior = shared_.total_in_flight->fetch_sub(
          1, std::memory_order_relaxed);
      GEMREC_CHECK(prior > 0);
    }
    Connection* conn = FindConnection(completion.conn_id);
    if (conn == nullptr || conn->dead) {
      // The connection died (timeout, slow reader, protocol error)
      // while its request was being served.
      metrics().orphaned_responses->Increment();
      continue;
    }
    GEMREC_CHECK(conn->in_flight > 0);
    --conn->in_flight;
    if (completion.is_stats) {
      AppendStatsResponseFrame(completion.stats, completion.tag,
                               &conn->write_buf);
      AfterQueue(conn);
    } else if (completion.is_ingest) {
      if (completion.ingest_status.ok()) {
        AppendIngestAckFrame(completion.ingest_seq, completion.tag,
                             &conn->write_buf);
        metrics().ingest_acks->Increment();
        const auto elapsed =
            std::chrono::steady_clock::now() - completion.received_at;
        metrics().round_trip_us->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count()));
        AfterQueue(conn);
      } else {
        // Typed mapping: caller mistakes are kBadRequest, anything the
        // server did to itself (journal I/O, apply) is kInternal.
        const StatusCode code = completion.ingest_status.code();
        const ErrorCode wire_code =
            (code == StatusCode::kInvalidArgument ||
             code == StatusCode::kOutOfRange)
                ? ErrorCode::kBadRequest
                : ErrorCode::kInternal;
        if (wire_code == ErrorCode::kBadRequest) {
          metrics().bad_requests->Increment();
        }
        SendError(conn, wire_code, completion.ingest_status.message(),
                  completion.tag);
      }
    } else {
      RespondToQuery(conn, completion);
    }
    if (conn->dead) {
      CloseConnection(conn);
    } else {
      UpdateInterest(conn);
    }
  }
  drained_.clear();
}

void Reactor::RespondToQuery(Connection* conn, const Completion& completion) {
  switch (completion.response.code) {
    case serving::ResponseCode::kOk: {
      AppendQueryResponseFrame(completion.response, completion.tag,
                               &conn->write_buf);
      metrics().responses->Increment();
      const auto elapsed =
          std::chrono::steady_clock::now() - completion.received_at;
      metrics().round_trip_us->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count()));
      AfterQueue(conn);
      break;
    }
    case serving::ResponseCode::kShuttingDown:
      // Refused racing the backend's own Shutdown: the same typed
      // error as an up-front drain refusal, never an empty result a
      // client might mistake for a real answer.
      metrics().drain_rejects->Increment();
      SendError(conn, ErrorCode::kShuttingDown, "service shutting down",
                completion.tag);
      break;
    case serving::ResponseCode::kBadRequest:
      // Invalid against the live snapshot (out-of-range user or
      // group member) — only the backend can know.
      metrics().bad_requests->Increment();
      SendError(conn, ErrorCode::kBadRequest,
                "request invalid against the serving snapshot",
                completion.tag);
      break;
    case serving::ResponseCode::kOverloaded:
      // A coordinator whose shard answered kOverloaded relays the same
      // typed signal instead of a silently thinner answer.
      metrics().overload_sheds->Increment();
      SendError(conn, ErrorCode::kOverloaded, "shard overloaded",
                completion.tag);
      break;
  }
}

void Reactor::SweepTimeouts(std::chrono::steady_clock::time_point now) {
  std::vector<uint64_t> doomed;
  for (const auto& [id, conn] : connections_) {
    if (conn->dead) {
      doomed.push_back(id);
      continue;
    }
    if (conn->draining) {
      // Drain completion for this connection: everything answered and
      // flushed — or the peer gets cut at the global drain deadline.
      if (conn->in_flight == 0 && conn->pending_write() == 0) {
        doomed.push_back(id);
      }
      continue;
    }
    if (conn->has_partial &&
        now - conn->partial_since >= options().read_timeout) {
      metrics().read_timeouts->Increment();
      doomed.push_back(id);
      continue;
    }
    if (!conn->has_partial && conn->in_flight == 0 &&
        conn->pending_write() == 0 &&
        now - conn->last_activity >= options().idle_timeout) {
      metrics().idle_timeouts->Increment();
      doomed.push_back(id);
    }
  }
  for (const uint64_t id : doomed) {
    if (Connection* conn = FindConnection(id)) CloseConnection(conn);
  }
}

int Reactor::PollTimeoutMs(
    std::chrono::steady_clock::time_point now) const {
  auto deadline = now + std::chrono::milliseconds(kMaxPollMs);
  for (const auto& [id, conn] : connections_) {
    if (conn->draining) continue;
    if (conn->has_partial) {
      deadline =
          std::min(deadline, conn->partial_since + options().read_timeout);
    } else if (conn->in_flight == 0 && conn->pending_write() == 0) {
      deadline =
          std::min(deadline, conn->last_activity + options().idle_timeout);
    }
  }
  if (draining_) deadline = std::min(deadline, drain_deadline_);
  if (listen_parked_) deadline = std::min(deadline, listen_rearm_at_);
  return std::min(kMaxPollMs, ToMillisCeil(deadline - now));
}

void Reactor::UpdateInterest(Connection* conn) {
  // Draining connections keep EPOLLIN: stats/ping probes must still be
  // readable (HandleFrame refuses everything else with kShuttingDown).
  uint32_t want = EPOLLIN;
  if (conn->pending_write() > 0) want |= EPOLLOUT;
  if (want != conn->interest) {
    loop_.Mod(conn->fd, want, reinterpret_cast<uint64_t>(conn));
    conn->interest = want;
  }
}

void Reactor::CloseConnection(Connection* conn) {
  loop_.Del(conn->fd);
  ::close(conn->fd);
  metrics().active_connections->Sub(1);
  shared_.total_connections->fetch_sub(1, std::memory_order_relaxed);
  owned_connections_->Sub(1);
  connections_.erase(conn->id);  // destroys *conn
}

}  // namespace gemrec::net
