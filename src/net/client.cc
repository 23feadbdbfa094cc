#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gemrec::net {
namespace {

timeval ToTimeval(std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
  return tv;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(
    const std::string& host, uint16_t port, const ClientOptions& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + host +
                                   "' (numeric IPv4 expected)");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (options.so_rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options.so_rcvbuf,
                 sizeof(options.so_rcvbuf));
  }
  const timeval connect_tv = ToTimeval(options.connect_timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &connect_tv,
               sizeof(connect_tv));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status s = Status::IoError(
        std::string("connect ") + resolved + ":" + std::to_string(port) +
        ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const timeval io_tv = ToTimeval(options.io_timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_tv, sizeof(io_tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &io_tv, sizeof(io_tv));
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::SendAll(const uint8_t* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w =
        ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::IoError("send timeout");
    }
    return Status::IoError(std::string("send: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Result<Frame> Client::ReceiveFrame() {
  Frame frame;
  if (decoder_.Next(&frame)) return frame;
  uint8_t buf[16 * 1024];
  while (true) {
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r == 0) {
      return Status::IoError("connection closed by server");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("receive timeout");
      }
      return Status::IoError(std::string("recv: ") +
                             std::strerror(errno));
    }
    GEMREC_RETURN_IF_ERROR(
        decoder_.Feed(buf, static_cast<size_t>(r)));
    if (decoder_.Next(&frame)) return frame;
  }
}

Status Client::SendTagged(const serving::QueryRequest& request,
                          uint64_t frame_id) {
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, FrameTag{true, frame_id}, &bytes);
  return SendAll(bytes.data(), bytes.size());
}

Status Client::Send(const serving::QueryRequest& request) {
  return SendTagged(request, next_frame_id_++);
}

Result<TaggedReply> Client::DecodeReply(Frame frame) {
  TaggedReply reply;
  reply.frame_id = frame.frame_id;
  switch (frame.type) {
    case MessageType::kQueryResponse:
      GEMREC_RETURN_IF_ERROR(
          DecodeQueryResponse(frame.payload.data(), frame.payload.size(),
                              &reply.outcome.response));
      reply.outcome.ok = true;
      return reply;
    case MessageType::kStatsResponse:
      GEMREC_RETURN_IF_ERROR(DecodeStatsResponse(
          frame.payload.data(), frame.payload.size(), &reply.stats));
      reply.is_stats = true;
      return reply;
    case MessageType::kError:
      GEMREC_RETURN_IF_ERROR(
          DecodeError(frame.payload.data(), frame.payload.size(),
                      &reply.outcome.error, &reply.outcome.error_message));
      reply.outcome.ok = false;
      return reply;
    default:
      return Status::Internal("unexpected frame type " +
                              std::to_string(static_cast<int>(frame.type)));
  }
}

Result<TaggedReply> Client::ReceiveAny() {
  GEMREC_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame());
  return DecodeReply(std::move(frame));
}

Result<Frame> Client::ReceiveFrameWithin(std::chrono::milliseconds timeout) {
  Frame frame;
  // Already-buffered frames are free — even a zero timeout drains them.
  if (decoder_.Next(&frame)) return frame;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  uint8_t buf[16 * 1024];
  while (true) {
    // Drain what the kernel already holds BEFORE consulting the
    // deadline: ReceiveAny(0ms) must surface replies that landed in
    // the socket buffer since the caller's own poll (the coordinator's
    // readable-fd drain), not just frames already fed to the decoder.
    while (true) {
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (r == 0) {
        return Status::IoError("connection closed by server");
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Status::IoError(std::string("recv: ") +
                               std::strerror(errno));
      }
      GEMREC_RETURN_IF_ERROR(decoder_.Feed(buf, static_cast<size_t>(r)));
      if (decoder_.Next(&frame)) return frame;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::Timeout("receive deadline (" +
                             std::to_string(timeout.count()) +
                             "ms) elapsed");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              now);
    // +1: round up so a sub-millisecond remainder still waits instead
    // of spinning poll(fd, 0) until the clock ticks over.
    pollfd p{fd_, POLLIN, 0};
    const int rc =
        ::poll(&p, 1, static_cast<int>(remaining.count()) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    // rc == 0 or readable: the loop head re-drains and re-checks the
    // deadline either way.
  }
}

Result<TaggedReply> Client::ReceiveAny(std::chrono::milliseconds timeout) {
  GEMREC_ASSIGN_OR_RETURN(Frame frame, ReceiveFrameWithin(timeout));
  return DecodeReply(std::move(frame));
}

Status Client::SendStatsRequest(uint64_t frame_id) {
  std::vector<uint8_t> bytes;
  AppendStatsRequestFrame(FrameTag{true, frame_id}, &bytes);
  return SendAll(bytes.data(), bytes.size());
}

Result<QueryOutcome> Client::Receive() {
  GEMREC_ASSIGN_OR_RETURN(TaggedReply reply, ReceiveAny());
  return std::move(reply.outcome);
}

Result<QueryOutcome> Client::Query(const serving::QueryRequest& request) {
  const uint64_t id = next_frame_id_++;
  GEMREC_RETURN_IF_ERROR(SendTagged(request, id));
  GEMREC_ASSIGN_OR_RETURN(TaggedReply reply, ReceiveAny());
  // Lockstep: exactly one request is outstanding, so the reply must
  // echo its id.
  if (reply.frame_id != id) {
    return Status::Internal(
        "frame id mismatch: sent " + std::to_string(id) + ", got " +
        std::to_string(reply.frame_id));
  }
  return std::move(reply.outcome);
}

Result<obs::MetricsSnapshot> Client::Stats() {
  std::vector<uint8_t> bytes;
  AppendStatsRequestFrame(NextTag(), &bytes);
  GEMREC_RETURN_IF_ERROR(SendAll(bytes.data(), bytes.size()));
  GEMREC_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame());
  if (frame.type != MessageType::kStatsResponse) {
    return Status::Internal("expected stats response, got frame type " +
                            std::to_string(static_cast<int>(frame.type)));
  }
  obs::MetricsSnapshot snapshot;
  GEMREC_RETURN_IF_ERROR(DecodeStatsResponse(
      frame.payload.data(), frame.payload.size(), &snapshot));
  return snapshot;
}

Status Client::SendAttendance(ebsn::UserId user, ebsn::EventId event,
                              bool new_user) {
  std::vector<uint8_t> bytes;
  AppendAttendanceFrame(user, event, new_user, NextTag(), &bytes);
  return SendAll(bytes.data(), bytes.size());
}

Status Client::SendNewEvent(ebsn::EventId event,
                            const embedding::NewEventSignals& signals) {
  std::vector<uint8_t> bytes;
  AppendNewEventFrame(event, signals, NextTag(), &bytes);
  return SendAll(bytes.data(), bytes.size());
}

Result<IngestOutcome> Client::ReceiveIngestAck() {
  GEMREC_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame());
  IngestOutcome outcome;
  switch (frame.type) {
    case MessageType::kIngestAck:
      GEMREC_RETURN_IF_ERROR(DecodeIngestAck(
          frame.payload.data(), frame.payload.size(), &outcome.seq));
      outcome.ok = true;
      return outcome;
    case MessageType::kError:
      GEMREC_RETURN_IF_ERROR(
          DecodeError(frame.payload.data(), frame.payload.size(),
                      &outcome.error, &outcome.error_message));
      outcome.ok = false;
      return outcome;
    default:
      return Status::Internal("unexpected frame type " +
                              std::to_string(static_cast<int>(frame.type)));
  }
}

Result<IngestOutcome> Client::Attend(ebsn::UserId user, ebsn::EventId event,
                                     bool new_user) {
  GEMREC_RETURN_IF_ERROR(SendAttendance(user, event, new_user));
  return ReceiveIngestAck();
}

Result<IngestOutcome> Client::PublishNewEvent(
    ebsn::EventId event, const embedding::NewEventSignals& signals) {
  GEMREC_RETURN_IF_ERROR(SendNewEvent(event, signals));
  return ReceiveIngestAck();
}

Status Client::Ping() {
  std::vector<uint8_t> bytes;
  const FrameTag tag = NextTag();
  AppendFrame(MessageType::kPing, nullptr, 0, tag, &bytes);
  GEMREC_RETURN_IF_ERROR(SendAll(bytes.data(), bytes.size()));
  GEMREC_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame());
  if (frame.type != MessageType::kPong) {
    return Status::Internal("expected pong");
  }
  if (frame.frame_id != tag.frame_id) {
    return Status::Internal("pong echoed wrong frame id");
  }
  return Status::Ok();
}

}  // namespace gemrec::net
