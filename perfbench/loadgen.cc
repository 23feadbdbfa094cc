#include "loadgen.h"

#include <arpa/inet.h>
#include <pthread.h>
#include <sched.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace gemrec::perfbench {
namespace {

constexpr uint64_t kTimerTag = ~uint64_t{0};
/// The first send is scheduled this far after Run() is entered, so the
/// schedule does not start already behind.
constexpr int64_t kLeadNs = 2'000'000;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    uint16_t port, int connections) {
  std::unique_ptr<LoadGenerator> gen(new LoadGenerator());
  // Timer expiries are otherwise coalesced by up to 50 µs, which would
  // show up as send lag at every arrival.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  gen->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  gen->timer_fd_ =
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (gen->epoll_fd_ < 0 || gen->timer_fd_ < 0) {
    return Status::IoError(std::string("epoll/timerfd: ") +
                           std::strerror(errno));
  }
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = kTimerTag;
  ::epoll_ctl(gen->epoll_fd_, EPOLL_CTL_ADD, gen->timer_fd_, &tev);

  gen->conns_.resize(static_cast<size_t>(connections));
  for (size_t i = 0; i < gen->conns_.size(); ++i) {
    Conn& c = gen->conns_[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      return Status::IoError("connect 127.0.0.1:" + std::to_string(port) +
                             ": " + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(gen->epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
  }
  return gen;
}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void LoadGenerator::Arm(int64_t when_ns) {
  if (when_ns == armed_ns_) return;
  armed_ns_ = when_ns;
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(when_ns / 1000000000LL);
  spec.it_value.tv_nsec = static_cast<long>(when_ns % 1000000000LL);
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

bool LoadGenerator::Flush(size_t index) {
  Conn& c = conns_[index];
  if (c.dead) return true;
  while (c.out_pos < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_pos += static_cast<size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
  const bool want = !c.out.empty();
  if (want != c.want_write) {
    c.want_write = want;
    epoll_event ev{};
    ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }
  return true;
}

void LoadGenerator::Fail(size_t index, LoadResult* result, size_t* done) {
  Conn& c = conns_[index];
  c.dead = true;
  c.out.clear();
  c.out_pos = 0;
  // A closed socket stays readable; keep it from waking epoll_wait.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  for (Reply& r : result->replies) {
    if (r.conn == index && r.sent_ns != 0 && r.outcome == Outcome::kPending) {
      r.outcome = Outcome::kTransport;
      ++*done;
    }
  }
}

void LoadGenerator::Drain(size_t index, const std::vector<Op>& ops,
                          LoadResult* result, size_t* done) {
  Conn& c = conns_[index];
  uint8_t buf[64 * 1024];
  while (!c.dead) {
    const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (r <= 0 || !c.decoder.Feed(buf, static_cast<size_t>(r)).ok()) {
      Fail(index, result, done);
      return;
    }
    const int64_t arrived = NowNs();
    net::Frame frame;
    while (c.decoder.Next(&frame)) {
      const uint64_t id = frame.frame_id;
      if (!frame.tagged || id < base_ || id - base_ >= ops.size()) continue;
      Reply& reply = result->replies[id - base_];
      if (reply.outcome != Outcome::kPending || reply.sent_ns == 0) continue;
      reply.recv_ns = arrived;
      reply.outcome = Outcome::kTransport;
      const uint8_t* p = frame.payload.data();
      const size_t n = frame.payload.size();
      if (frame.type == net::MessageType::kQueryResponse) {
        serving::QueryResponse response;
        if (net::DecodeQueryResponse(p, n, &response).ok()) {
          reply.outcome = Outcome::kOk;
          reply.epoch = response.epoch;
          reply.cache_hit = response.cache_hit;
          reply.partial = response.partial;
          reply.ta_bound = response.ta_bound;
          if (ops[id - base_].keep_items) {
            reply.items = std::move(response.items);
          }
        }
      } else if (frame.type == net::MessageType::kIngestAck) {
        if (net::DecodeIngestAck(p, n, &reply.seq).ok()) {
          reply.outcome = Outcome::kOk;
        }
      } else if (frame.type == net::MessageType::kError) {
        std::string message;
        if (net::DecodeError(p, n, &reply.error, &message).ok()) {
          reply.outcome = Outcome::kError;
        }
      }
      ++*done;
    }
  }
}

LoadResult LoadGenerator::Run(const std::vector<Op>& ops,
                              std::chrono::milliseconds reply_timeout) {
  // Frames are encoded up front so the send path is a copy.
  // The codec reserves exactly what each frame needs, so the buffer is
  // sized for the largest frame (a 3-member group query) up front.
  std::vector<uint8_t> wire;
  wire.reserve(ops.size() * 64);
  std::vector<size_t> offsets(ops.size() + 1, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    offsets[i] = wire.size();
    const net::FrameTag tag{true, base_ + i};
    if (ops[i].write) {
      net::AppendAttendanceFrame(ops[i].user, ops[i].event, ops[i].new_user,
                                 tag, &wire);
    } else {
      net::AppendQueryRequestFrame(ops[i].query, tag, &wire);
    }
  }
  offsets[ops.size()] = wire.size();

  // While it runs, the generator thread takes the lowest real-time
  // priority where the host allows it, so the serve stack's threads
  // cannot delay a send or the timestamp of a reply; it sleeps in
  // epoll_wait between events, so this costs the stack almost nothing.
  int policy = SCHED_OTHER;
  sched_param saved{};
  pthread_getschedparam(pthread_self(), &policy, &saved);
  sched_param realtime{};
  realtime.sched_priority = 1;
  LoadResult result;
  result.realtime =
      pthread_setschedparam(pthread_self(), SCHED_FIFO, &realtime) == 0;
  result.replies.resize(ops.size());
  result.start_ns = NowNs() + kLeadNs;
  const int64_t timeout_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(reply_timeout)
          .count();
  size_t next = 0, done = 0, round_robin = 0;
  int64_t deadline = 0;
  epoll_event events[16];
  while (done < ops.size()) {
    const int64_t now = NowNs();
    while (next < ops.size() && result.start_ns + ops[next].at_ns <= now) {
      const size_t index =
          ops[next].write ? 0 : round_robin++ % conns_.size();
      Reply& reply = result.replies[next];
      reply.conn = static_cast<uint8_t>(index);
      reply.sent_ns = now;
      Conn& c = conns_[index];
      if (c.dead) {
        reply.outcome = Outcome::kTransport;
        ++done;
      } else {
        c.out.insert(c.out.end(), wire.begin() + offsets[next],
                     wire.begin() + offsets[next + 1]);
      }
      ++next;
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i].out.empty() && !Flush(i)) Fail(i, &result, &done);
    }
    if (next == ops.size()) {
      if (deadline == 0) deadline = now + timeout_ns;
      if (now >= deadline || done >= ops.size()) break;
    }
    Arm(next < ops.size() ? result.start_ns + ops[next].at_ns : deadline);
    const int n = ::epoll_wait(epoll_fd_, events, 16, -1);
    for (int e = 0; e < n; ++e) {
      if (events[e].data.u64 == kTimerTag) {
        uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        armed_ns_ = -1;
        continue;
      }
      const size_t index = static_cast<size_t>(events[e].data.u64);
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        Drain(index, ops, &result, &done);
      }
      if ((events[e].events & EPOLLOUT) && !Flush(index)) {
        Fail(index, &result, &done);
      }
    }
  }
  base_ += ops.size();
  if (result.realtime) pthread_setschedparam(pthread_self(), policy, &saved);
  return result;
}

}  // namespace gemrec::perfbench
