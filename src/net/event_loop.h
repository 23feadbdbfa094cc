#ifndef GEMREC_NET_EVENT_LOOP_H_
#define GEMREC_NET_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <cstdint>
#include <vector>

namespace gemrec::net {

/// Thin epoll wrapper with a built-in wakeup channel. One thread (the
/// owner) calls Poll; any thread — including a signal handler, since
/// eventfd write(2) is async-signal-safe — may call Wakeup to make a
/// blocked Poll return early.
///
/// Registration tags: callers attach a uint64_t tag per fd (typically
/// a pointer or a small sentinel) and get it back in the epoll_event's
/// data.u64. The wakeup channel occupies kWakeupTag.
class EventLoop {
 public:
  static constexpr uint64_t kWakeupTag = 0;

  EventLoop();   // aborts if epoll/eventfd creation fails (no fds left)
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// epoll_ctl ADD/MOD/DEL. `events` is an EPOLLIN/EPOLLOUT/... mask.
  void Add(int fd, uint32_t events, uint64_t tag);
  void Mod(int fd, uint32_t events, uint64_t tag);
  void Del(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and fills `out` with
  /// ready events. Retries EINTR; returns the number of events.
  int Poll(int timeout_ms, std::vector<epoll_event>* out);

  /// Makes the current/next Poll return. Async-signal-safe.
  void Wakeup();

  /// Drains the wakeup channel with one read, however many Wakeup
  /// calls came before (call when a kWakeupTag event fires so
  /// level-triggered epoll stops reporting it).
  void DrainWakeup();

 private:
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
};

}  // namespace gemrec::net

#endif  // GEMREC_NET_EVENT_LOOP_H_
