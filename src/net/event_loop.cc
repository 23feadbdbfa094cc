#include "net/event_loop.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace gemrec::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  GEMREC_CHECK(epoll_fd_ >= 0)
      << "epoll_create1: " << std::strerror(errno);
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  GEMREC_CHECK(wakeup_fd_ >= 0) << "eventfd: " << std::strerror(errno);
  Add(wakeup_fd_, EPOLLIN, kWakeupTag);
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Add(int fd, uint32_t events, uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  GEMREC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0)
      << "epoll_ctl ADD fd " << fd << ": " << std::strerror(errno);
}

void EventLoop::Mod(int fd, uint32_t events, uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  GEMREC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0)
      << "epoll_ctl MOD fd " << fd << ": " << std::strerror(errno);
}

void EventLoop::Del(int fd) {
  GEMREC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) == 0)
      << "epoll_ctl DEL fd " << fd << ": " << std::strerror(errno);
}

int EventLoop::Poll(int timeout_ms, std::vector<epoll_event>* out) {
  if (out->size() < 64) out->resize(64);
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, out->data(),
                               static_cast<int>(out->size()), timeout_ms);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    GEMREC_CHECK(false) << "epoll_wait: " << std::strerror(errno);
  }
}

void EventLoop::Wakeup() {
  // write(2) on an eventfd is async-signal-safe; the counter saturates
  // rather than blocks, and a full counter still leaves EPOLLIN set.
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_fd_, &one, sizeof(one));
}

void EventLoop::DrainWakeup() {
  // A non-semaphore eventfd read returns the whole counter and resets
  // it, so one read drains every Wakeup so far; it fails with EAGAIN
  // only when there was none.
  uint64_t value;
  [[maybe_unused]] const ssize_t n = ::read(wakeup_fd_, &value, sizeof(value));
}

}  // namespace gemrec::net
