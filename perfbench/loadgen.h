#ifndef GEMREC_PERFBENCH_LOADGEN_H_
#define GEMREC_PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "ebsn/types.h"
#include "net/wire.h"
#include "recommend/recommender.h"
#include "serving/query_backend.h"

namespace gemrec::perfbench {

/// One scheduled request: a read (top-n query) or an attendance write.
struct Op {
  /// Intended send time, nanoseconds after the window start.
  int64_t at_ns = 0;
  bool write = false;
  serving::QueryRequest query;  // reads
  ebsn::UserId user = 0;        // writes
  ebsn::EventId event = 0;      // writes
  bool new_user = false;        // writes
  /// Keep the answer's items for the oracle check.
  bool keep_items = false;
};

enum class Outcome : uint8_t {
  kPending,    // never answered (a timeout once the run ends)
  kOk,
  kError,      // typed error frame (overload shed, bad request, ...)
  kTransport,  // connection lost or unparseable reply
};

/// What came back for one Op. Times are absolute steady_clock
/// nanoseconds: `sent_ns` when the frame was handed to send(2),
/// `recv_ns` when the recv(2) carrying its last byte returned.
struct Reply {
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  Outcome outcome = Outcome::kPending;
  net::ErrorCode error = net::ErrorCode::kInternal;
  uint8_t conn = 0;
  bool cache_hit = false;
  bool partial = false;
  uint64_t epoch = 0;  // reads
  uint64_t seq = 0;    // writes: journal sequence number of the ack
  float ta_bound = 0.0f;
  std::vector<recommend::Recommendation> items;  // when Op::keep_items
};

struct LoadResult {
  /// Absolute steady_clock ns of the window start (Op::at_ns == 0).
  int64_t start_ns = 0;
  std::vector<Reply> replies;  // parallel to the ops
  /// The generator ran at real-time priority (else the default).
  bool realtime = false;
};

/// Open-loop load generator: sends each Op at its intended time over a
/// few pipelined wire-v2 connections, whether or not earlier requests
/// were answered. One thread does everything through epoll, with a
/// timerfd for the send schedule, so a reply is timestamped as soon as
/// it lands rather than when the next send is due, and the thread never
/// spins. Writes ride connection 0 (so their acks arrive in journal
/// order); reads go round-robin over all connections.
class LoadGenerator {
 public:
  static Result<std::unique_ptr<LoadGenerator>> Connect(uint16_t port,
                                                        int connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Runs the schedule on the calling thread, starting shortly after
  /// the call, and returns once every op is answered or `reply_timeout`
  /// has passed since the last send (unanswered ops stay kPending).
  LoadResult Run(const std::vector<Op>& ops,
                 std::chrono::milliseconds reply_timeout);

  int connections() const { return static_cast<int>(conns_.size()); }

 private:
  struct Conn {
    int fd = -1;
    bool dead = false;
    bool want_write = false;
    net::FrameDecoder decoder;
    std::vector<uint8_t> out;
    size_t out_pos = 0;
  };

  LoadGenerator() = default;
  /// Writes what the connection has buffered; false when it broke.
  bool Flush(size_t index);
  void Drain(size_t index, const std::vector<Op>& ops, LoadResult* result,
             size_t* done);
  /// Marks the connection dead and its unanswered ops kTransport.
  void Fail(size_t index, LoadResult* result, size_t* done);
  void Arm(int64_t when_ns);

  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  int64_t armed_ns_ = -1;
  /// Frame ids of one run are base_ + op index; the base advances past
  /// every run so a late reply to an earlier run is never misattributed.
  uint64_t base_ = 1;
};

/// Monotonic nanoseconds (the steady_clock / CLOCK_MONOTONIC epoch).
int64_t NowNs();

}  // namespace gemrec::perfbench

#endif  // GEMREC_PERFBENCH_LOADGEN_H_
