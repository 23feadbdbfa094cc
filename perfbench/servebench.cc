// Open-loop serving benchmark for the gemrec serve stack.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--work-dir DIR] [--git-sha SHA]
//
// Boots the real stack in-process from a saved GEMREC02 model, drives
// it over loopback with Poisson arrivals on pipelined wire-v2
// connections, checks sampled answers against the retrieval oracles,
// and prints one JSON result as the last line of stdout. --trace 0
// reports the end-to-end metrics; --trace 1 reruns the workload with
// timing decorators in front of every backend and reports the
// per-layer ledger. perfbench/README.md defines every workload and
// metric.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/vec_math.h"
#include "distributions.h"
#include "embedding/serialization.h"
#include "loadgen.h"
#include "net/client.h"
#include "proc_stats.h"
#include "recommend/batch_ta_search.h"
#include "recommend/brute_force.h"
#include "recommend/query_kinds.h"
#include "serve_stack.h"
#include "serving/model_snapshot.h"

namespace gemrec::perfbench {
namespace {

using recommend::QueryKind;

constexpr uint32_t kTopN = 10;
constexpr int kConnections = 4;
constexpr size_t kSetupRepeats = 11;
constexpr double kWarmupSeconds = 2.0;
/// The nominal window is split into up to kSubWindows equal sub-windows
/// of at least kSubWindowReads reads each. Its p50 is the median of the
/// sub-windows' p50s; its p99 is the lower quartile of their p99s, so
/// hypervisor stalls of a shared host in up to three quarters of the
/// window do not move it (a change in the stack moves every sub-window).
constexpr size_t kSubWindows = 8;
constexpr size_t kSubWindowReads = 1000;
/// Answers compared against the oracle, per query kind and run.
constexpr size_t kChecksPerKind = 40;
constexpr auto kReplyTimeout = std::chrono::milliseconds(3000);

// Capacity ladder: rung i offers kLadderBase * 2^(i / kRungsPerOctave)
// reads per second. A sub-window of a rung meets the limits when its
// read p99 (a failed read counts as infinitely late) is within
// kP99LimitUs and at most kMaxFailedFrac of its requests failed; the
// reads in flight may grow by at most kMaxBacklogGrowth of the reads
// sent in the rung's second half.
constexpr double kLadderBase = 100.0;
constexpr int kRungsPerOctave = 8;
/// A rung lasts kRungSeconds and is judged in sub-windows of a second,
/// each spanning a couple of write_mix publish cycles.
constexpr double kRungSeconds = 2.0;
constexpr int kRungSubWindows = 2;
constexpr double kP99LimitUs = 10000.0;
constexpr double kMaxFailedFrac = 0.001;
constexpr double kMaxBacklogGrowth = 0.05;

// A run whose generator fell behind its own schedule, or whose sends
// were late by as much as the latency limit, measures the generator or
// the host rather than the stack, and is refused.
constexpr double kMaxSendLagP99Us = kP99LimitUs;
constexpr double kMinAchievedRateFrac = 0.99;
/// A refused nominal window is measured again, up to this many times in
/// all: a hypervisor stall of a few seconds should cost a run time, not
/// its result.
constexpr int kMeasureAttempts = 3;

struct Workload {
  const char* name;
  Topology topology;
  /// Nominal offered read rate (1/s) and write rate (1/s).
  double read_rate;
  double write_rate;
  /// Zipf exponent of user popularity; 0 = uniform.
  double zipf_s;
  /// 80% partner, 10% group (3 members, half sum / half min), 10%
  /// reciprocal; otherwise partner only.
  bool mixed_kinds;
  /// Partner-read rate of the warm-up that fills the result cache.
  double warmup_rate;
  /// Capacity search starts at this ladder rung (about half of the
  /// stack's capacity on a 4-core host).
  int ladder_start;
};

// Nominal rates sit at most at half of each stack's capacity on a
// 4-core host, low enough that no request fails at them even when the
// shared host stalls for tens of milliseconds (the front end sheds past
// 256 requests in flight);
// sharded_mix offers cold_mix's exact traffic, so the two share a rate
// that the sharded tier sustains.
constexpr Workload kWorkloads[] = {
    {"hot_partner", Topology::kSingle, 4000.0, 0.0, 1.0, false, 30000.0, 61},
    {"cold_mix", Topology::kSingle, 400.0, 0.0, 0.0, true, 2000.0, 32},
    {"write_mix", Topology::kWrite, 2000.0, 80.0, 1.0, false, 6000.0, 42},
    {"sharded_mix", Topology::kSharded, 400.0, 0.0, 0.0, true, 2000.0, 24},
};

/// Share of attendance writes that fold in a cold user.
constexpr double kNewUserShare = 0.03;

// ---------------------------------------------------------------------------
// Traffic

/// Deterministic request stream of one workload: stream `s` of seed
/// `seed` always yields the same ops, whatever ran before it.
class Traffic {
 public:
  Traffic(const Workload& workload, const City& city, uint64_t seed)
      : workload_(workload), city_(city), seed_(seed) {
    Rng rng(SplitMix64(seed ^ 0x5eedu).Next());
    by_popularity_.resize(city.num_users);
    for (uint32_t u = 0; u < city.num_users; ++u) by_popularity_[u] = u;
    rng.Shuffle(&by_popularity_);
    if (workload.zipf_s > 0.0) zipf_.emplace(city.num_users, workload.zipf_s);
  }

  std::vector<Op> Make(double read_rate, double write_rate, double seconds,
                       uint64_t stream, bool partner_only) const {
    Rng rng(SplitMix64(seed_ * 1000003u + stream).Next());
    const std::vector<int64_t> reads = PoissonArrivals(read_rate, seconds, rng);
    const std::vector<int64_t> writes =
        write_rate > 0.0 ? PoissonArrivals(write_rate, seconds, rng)
                         : std::vector<int64_t>{};
    std::vector<Op> ops;
    ops.reserve(reads.size() + writes.size());
    size_t r = 0, w = 0;
    while (r < reads.size() || w < writes.size()) {
      if (w == writes.size() || (r < reads.size() && reads[r] <= writes[w])) {
        ops.push_back(NextRead(reads[r++], partner_only, rng));
      } else {
        ops.push_back(NextWrite(writes[w++], rng));
      }
    }
    return ops;
  }

 private:
  ebsn::UserId NextUser(Rng& rng) const {
    return zipf_ ? by_popularity_[(*zipf_)(rng)]
                 : static_cast<ebsn::UserId>(rng.UniformInt(city_.num_users));
  }

  Op NextRead(int64_t at, bool partner_only, Rng& rng) const {
    Op op;
    op.at_ns = at;
    op.query.user = NextUser(rng);
    op.query.n = kTopN;
    if (partner_only || !workload_.mixed_kinds) return op;
    const double pick = rng.UniformDouble();
    if (pick < 0.8) return op;
    if (pick < 0.9) {
      op.query.kind = QueryKind::kGroup;
      op.query.aggregator = rng.Bernoulli(0.5)
                                ? recommend::GroupAggregator::kSum
                                : recommend::GroupAggregator::kMin;
      while (op.query.group.size() < 3) {
        const auto m =
            static_cast<ebsn::UserId>(rng.UniformInt(city_.num_users));
        if (m != op.query.user &&
            std::find(op.query.group.begin(), op.query.group.end(), m) ==
                op.query.group.end()) {
          op.query.group.push_back(m);
        }
      }
    } else {
      op.query.kind = QueryKind::kReciprocal;
    }
    return op;
  }

  Op NextWrite(int64_t at, Rng& rng) const {
    Op op;
    op.at_ns = at;
    op.write = true;
    op.user = static_cast<ebsn::UserId>(rng.UniformInt(city_.num_users));
    op.event = city_.pool[rng.UniformInt(city_.pool.size())];
    op.new_user = rng.Bernoulli(kNewUserShare);
    return op;
  }

  const Workload& workload_;
  const City& city_;
  uint64_t seed_;
  std::vector<ebsn::UserId> by_popularity_;
  std::optional<ZipfDistribution> zipf_;
};

/// Marks an evenly spread sample of each query kind for answer checks.
void MarkChecks(std::vector<Op>* ops) {
  size_t count[3] = {0, 0, 0};
  for (const Op& op : *ops) {
    if (!op.write) ++count[static_cast<int>(op.query.kind)];
  }
  size_t seen[3] = {0, 0, 0};
  for (Op& op : *ops) {
    if (op.write) continue;
    const int k = static_cast<int>(op.query.kind);
    const size_t stride = std::max<size_t>(1, count[k] / kChecksPerKind);
    op.keep_items = seen[k]++ % stride == 0;
  }
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

bool IsRead(const Op& op) { return !op.write; }

/// Outcome of one open-loop window at a fixed offered rate.
struct Window {
  size_t attempted = 0;
  size_t failed = 0;  // errors, sheds, timeouts, partial answers
  size_t errors = 0, transport = 0, timeouts = 0, partial = 0;
  size_t reads_ok = 0;
  /// Latency percentiles from the intended send time (see kSubWindows).
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Sub-windows whose p99 and failed share met the capacity limits,
  /// out of `windows`.
  int passed = 0;
  int windows = 0;
  /// Growth of the reads in flight across the second half, per read
  /// sent in it.
  double backlog_growth = 0.0;
  double send_lag_p99_us = 0.0;
  double achieved_rate_frac = 0.0;
  double completed_read_rate = 0.0;
  int64_t process_cpu_ns = 0;
  /// CPU of the generator (main) thread over the window.
  int64_t main_cpu_ns = 0;
  double steal_frac = 0.0;
  bool realtime = false;
};

bool GeneratorKeptUp(const Window& w) {
  return w.send_lag_p99_us <= kMaxSendLagP99Us &&
         w.achieved_rate_frac >= kMinAchievedRateFrac;
}

bool Succeeded(const Reply& reply) {
  return reply.outcome == Outcome::kOk && !reply.partial;
}

/// `windows` = 0 picks the nominal sub-window count from the reads.
Window Summarize(const std::vector<Op>& ops, const LoadResult& r,
                 double seconds, int windows) {
  Window w;
  std::vector<double> lag;
  int64_t first_sent = 0, last_sent = 0;
  size_t reads = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Reply& reply = r.replies[i];
    ++w.attempted;
    if (!Succeeded(reply)) ++w.failed;
    w.errors += reply.outcome == Outcome::kError;
    w.transport += reply.outcome == Outcome::kTransport;
    w.timeouts += reply.outcome == Outcome::kPending;
    w.partial += reply.outcome == Outcome::kOk && reply.partial;
    if (IsRead(ops[i])) {
      ++reads;
      if (Succeeded(reply)) ++w.reads_ok;
    }
    if (reply.sent_ns != 0) {
      lag.push_back(Us(reply.sent_ns - (r.start_ns + ops[i].at_ns)));
      if (first_sent == 0) first_sent = reply.sent_ns;
      last_sent = reply.sent_ns;
    }
  }
  w.send_lag_p99_us = Percentile(lag, 0.99);
  if (ops.size() > 1 && last_sent > first_sent) {
    w.achieved_rate_frac =
        static_cast<double>(ops.back().at_ns - ops.front().at_ns) /
        static_cast<double>(last_sent - first_sent);
  }
  w.completed_read_rate = w.reads_ok / seconds;

  // Sub-windows by intended send time, each judged on its own read p99
  // (a failed read counts as infinitely late) and failed share.
  w.windows = windows > 0 ? windows
                          : static_cast<int>(std::clamp<size_t>(
                                reads / kSubWindowReads, 1, kSubWindows));
  const int64_t span = static_cast<int64_t>(seconds * 1e9) / w.windows;
  const auto in_flight_at = [&](int64_t t) {
    int64_t n = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      const Reply& reply = r.replies[i];
      if (!IsRead(ops[i]) || reply.sent_ns == 0 || reply.sent_ns > t) continue;
      if (reply.recv_ns == 0 || reply.recv_ns > t) ++n;
    }
    return n;
  };
  const int64_t half = static_cast<int64_t>(seconds * 0.5e9);
  w.backlog_growth =
      static_cast<double>(in_flight_at(r.start_ns + 2 * half) -
                          in_flight_at(r.start_ns + half)) /
      std::max<double>(1.0, 0.5 * static_cast<double>(reads));
  std::vector<double> p50s, p99s;
  for (int k = 0; k < w.windows; ++k) {
    std::vector<double> latency;
    size_t attempted = 0, failed = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].at_ns < k * span || ops[i].at_ns >= (k + 1) * span) continue;
      const Reply& reply = r.replies[i];
      ++attempted;
      if (!Succeeded(reply)) ++failed;
      if (IsRead(ops[i])) {
        latency.push_back(
            Succeeded(reply) ? Us(reply.recv_ns - (r.start_ns + ops[i].at_ns))
                             : std::numeric_limits<double>::infinity());
      }
    }
    const double p99 = Percentile(latency, 0.99);
    p50s.push_back(Percentile(latency, 0.50));
    p99s.push_back(p99);
    if (p99 <= kP99LimitUs && failed <= kMaxFailedFrac * attempted) ++w.passed;
  }
  std::sort(p99s.begin(), p99s.end());
  w.p50_us = Median(p50s);
  w.p99_us = p99s[(p99s.size() - 1) / 4];
  return w;
}

/// Runs one window and measures the CPU it cost.
Window RunWindow(LoadGenerator* gen, const std::vector<Op>& ops,
                 double seconds, int windows, LoadResult* result_out) {
  const HostCpu host_before = ReadHostCpu();
  const int64_t process_before = ProcessCpuNs();
  const int64_t main_before = ThreadCpuNs(CurrentTid());
  LoadResult result = gen->Run(ops, kReplyTimeout);
  const int64_t main_after = ThreadCpuNs(CurrentTid());
  const int64_t process_after = ProcessCpuNs();
  Window w = Summarize(ops, result, seconds, windows);
  w.process_cpu_ns = process_after - process_before;
  w.main_cpu_ns = main_after - main_before;
  w.realtime = result.realtime;
  w.steal_frac = StealFraction(host_before, ReadHostCpu());
  if (result_out != nullptr) *result_out = std::move(result);
  return w;
}

// ---------------------------------------------------------------------------
// Answer checks

struct Checks {
  size_t compared[3] = {0, 0, 0};  // by QueryKind
  size_t mismatches = 0;
  /// Sampled reads that got no full answer. They already count among the
  /// window's failed requests, so they fail the check without being
  /// counted twice.
  size_t unanswered = 0;

  void Fail(const std::string& what) {
    ++mismatches;
    Log(what);
  }
  void Unanswered(const std::string& what) {
    ++unanswered;
    Log(what);
  }
  bool ok() const { return mismatches == 0 && unanswered == 0; }

 private:
  void Log(const std::string& what) const {
    if (mismatches + unanswered <= 5) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

uint32_t Bits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

/// Same length and the same score bits rank by rank; pairs equal as a
/// set within each run of equal scores (fold-ins can give two pairs one
/// score, and the oracles break such ties differently from the serve
/// path). Only a tie that crosses the cut-off, i.e. whose score is also
/// `best_unreturned` (the oracle's best score past rank n), may hold any
/// of the tied pairs in its last run.
bool SameItems(const std::vector<recommend::Recommendation>& served,
               const std::vector<recommend::Recommendation>& oracle,
               float best_unreturned) {
  if (served.size() != oracle.size()) return false;
  const auto pair_order = [](const recommend::Recommendation& a,
                             const recommend::Recommendation& b) {
    return std::tie(a.event, a.partner) < std::tie(b.event, b.partner);
  };
  for (size_t i = 0; i < served.size();) {
    size_t j = i;
    while (j < served.size() && Bits(oracle[j].score) == Bits(oracle[i].score)) {
      if (Bits(served[j].score) != Bits(oracle[j].score)) return false;
      ++j;
    }
    if (j < served.size() || Bits(oracle[i].score) != Bits(best_unreturned)) {
      std::vector<recommend::Recommendation> a(served.begin() + i,
                                               served.begin() + j);
      std::vector<recommend::Recommendation> b(oracle.begin() + i,
                                               oracle.begin() + j);
      std::sort(a.begin(), a.end(), pair_order);
      std::sort(b.begin(), b.end(), pair_order);
      for (size_t k = 0; k < a.size(); ++k) {
        if (pair_order(a[k], b[k]) || pair_order(b[k], a[k])) return false;
      }
    }
    i = j;
  }
  return true;
}

/// Items equal the oracle's top-n bitwise and in order, and ta_bound
/// is a sound certificate: no unreturned pair scores above it
/// (`best_unreturned` is the oracle's best score past rank n) and a full
/// answer's n-th score is not below it. Single-instance group answers
/// must carry exactly the oracle's bound.
void CheckOne(const serving::QueryRequest& q, const Reply& reply,
              const serving::ModelSnapshot& snap, bool exact_group_bound,
              Checks* checks) {
  std::vector<recommend::Recommendation> oracle;
  float best_unreturned = -std::numeric_limits<float>::infinity();
  switch (q.kind) {
    case QueryKind::kPartner: {
      std::vector<float> query;
      snap.QueryVector(q.user, &query);
      const recommend::BruteForceSearch brute(&snap.space());
      const auto hits = brute.Search(query, q.n + 1, q.user);
      for (size_t i = 0; i < hits.size(); ++i) {
        if (i == q.n) {
          best_unreturned = hits[i].score;
          break;
        }
        oracle.push_back({hits[i].pair.event, hits[i].pair.partner,
                          hits[i].score});
      }
      break;
    }
    case QueryKind::kGroup:
      oracle = recommend::GroupTopEvents(snap.model(), snap.shard_events(),
                                         q.user, q.group, q.aggregator, q.n,
                                         &best_unreturned);
      break;
    case QueryKind::kReciprocal:
      oracle = recommend::ReciprocalTopPairs(snap.model(), snap.space(),
                                             q.user, q.n, &best_unreturned);
      break;
  }
  ++checks->compared[static_cast<int>(q.kind)];
  const std::string what = std::string(recommend::QueryKindName(q.kind)) +
                           " user " + std::to_string(q.user);
  if (!SameItems(reply.items, oracle, best_unreturned)) {
    checks->Fail(what + ": items differ from the oracle");
    return;
  }
  const bool bound_ok =
      q.kind == QueryKind::kGroup && exact_group_bound
          ? reply.ta_bound == best_unreturned
          : reply.ta_bound >= best_unreturned &&
                (oracle.size() < q.n || reply.ta_bound <= oracle.back().score);
  if (!bound_ok) {
    checks->Fail(what + ": ta_bound " + std::to_string(reply.ta_bound) +
                 " is not a sound certificate (oracle " +
                 std::to_string(best_unreturned) + ")");
  }
}

void CheckSampled(const std::vector<Op>& ops, const LoadResult& r,
                  const serving::ModelSnapshot& snap, bool check_epoch,
                  bool exact_group_bound, Checks* checks) {
  for (size_t i = 0; i < ops.size(); ++i) {
    const Reply& reply = r.replies[i];
    if (!ops[i].keep_items) continue;
    if (!Succeeded(reply)) {
      checks->Unanswered(
          std::string("sampled ") + recommend::QueryKindName(ops[i].query.kind) +
          " read of user " + std::to_string(ops[i].query.user) +
          " got no full answer");
      continue;
    }
    if (check_epoch && reply.epoch != snap.epoch()) {
      checks->Fail("answer from epoch " + std::to_string(reply.epoch) +
                   ", published " + std::to_string(snap.epoch()));
      continue;
    }
    CheckOne(ops[i].query, reply, snap, exact_group_bound, checks);
  }
}

/// Write-path invariants: acks carry strictly increasing journal seqs in
/// the order the writes were sent on their connection, and no read is
/// answered from a snapshot older than one its connection had already
/// been answered from before the read was sent.
void CheckWriteOrder(const std::vector<Op>& ops, const LoadResult& r,
                     Checks* checks) {
  uint64_t last_seq = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Reply& reply = r.replies[i];
    if (!ops[i].write || reply.outcome != Outcome::kOk) continue;
    if (reply.seq <= last_seq) {
      checks->Fail("ack seq " + std::to_string(reply.seq) + " after " +
                   std::to_string(last_seq));
    }
    last_seq = reply.seq;
  }
  for (int conn = 0; conn < kConnections; ++conn) {
    std::vector<std::pair<int64_t, uint64_t>> arrivals;  // (recv, epoch)
    for (size_t i = 0; i < ops.size(); ++i) {
      const Reply& reply = r.replies[i];
      if (IsRead(ops[i]) && reply.conn == conn && reply.outcome == Outcome::kOk) {
        arrivals.emplace_back(reply.recv_ns, reply.epoch);
      }
    }
    std::sort(arrivals.begin(), arrivals.end());
    std::vector<uint64_t> max_epoch(arrivals.size());
    for (size_t k = 0; k < arrivals.size(); ++k) {
      max_epoch[k] = std::max(k ? max_epoch[k - 1] : 0, arrivals[k].second);
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      const Reply& reply = r.replies[i];
      if (!IsRead(ops[i]) || reply.conn != conn || reply.outcome != Outcome::kOk) {
        continue;
      }
      const auto before = std::lower_bound(
          arrivals.begin(), arrivals.end(),
          std::make_pair(reply.sent_ns, uint64_t{0}));
      if (before == arrivals.begin()) continue;
      const uint64_t seen = max_epoch[before - arrivals.begin() - 1];
      if (reply.epoch < seen) {
        checks->Fail("epoch went back from " + std::to_string(seen) + " to " +
                     std::to_string(reply.epoch) + " on connection " +
                     std::to_string(conn));
      }
    }
  }
}

/// Latency of acks (from intended send) and of freshness: ack arrival to
/// the first read answered from a snapshot newer than every epoch seen
/// when the ack arrived.
void WriteLatencies(const std::vector<Op>& ops, const LoadResult& r,
                    std::vector<double>* ack_us,
                    std::vector<double>* freshness_ms) {
  std::vector<std::pair<int64_t, uint64_t>> reads;  // (recv, epoch)
  for (size_t i = 0; i < ops.size(); ++i) {
    const Reply& reply = r.replies[i];
    if (reply.outcome != Outcome::kOk) continue;
    if (ops[i].write) {
      ack_us->push_back(Us(reply.recv_ns - (r.start_ns + ops[i].at_ns)));
    } else {
      reads.emplace_back(reply.recv_ns, reply.epoch);
    }
  }
  std::sort(reads.begin(), reads.end());
  std::vector<uint64_t> max_epoch(reads.size());
  for (size_t k = 0; k < reads.size(); ++k) {
    max_epoch[k] = std::max(k ? max_epoch[k - 1] : 0, reads[k].second);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const Reply& reply = r.replies[i];
    if (!ops[i].write || reply.outcome != Outcome::kOk) continue;
    auto it = std::upper_bound(
        reads.begin(), reads.end(),
        std::make_pair(reply.recv_ns, std::numeric_limits<uint64_t>::max()));
    const uint64_t seen =
        it == reads.begin() ? 0 : max_epoch[it - reads.begin() - 1];
    for (; it != reads.end(); ++it) {
      if (it->second > seen) {
        freshness_ms->push_back(static_cast<double>(it->first - reply.recv_ns) /
                                1e6);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stats over the wire

obs::HistogramData Hist(const obs::MetricsSnapshot& s, const std::string& name) {
  obs::HistogramData sum;
  for (const obs::MetricValue& m : s.metrics) {
    if (m.type != obs::MetricType::kHistogram) continue;
    if (m.name != name && m.name.rfind(name + "{", 0) != 0) continue;
    sum.count += m.histogram.count;
    sum.sum += m.histogram.sum;
    for (size_t b = 0; b < obs::kHistogramBuckets; ++b) {
      sum.buckets[b] += m.histogram.buckets[b];
    }
  }
  return sum;
}

/// Counter summed over the name and every {shard="i"} copy of it.
uint64_t Count(const obs::MetricsSnapshot& s, const std::string& name) {
  uint64_t sum = 0;
  for (const obs::MetricValue& m : s.metrics) {
    if (m.type == obs::MetricType::kCounter &&
        (m.name == name || m.name.rfind(name + "{", 0) == 0)) {
      sum += m.counter;
    }
  }
  return sum;
}

Result<obs::MetricsSnapshot> FetchStats(uint16_t port) {
  GEMREC_ASSIGN_OR_RETURN(auto client, net::Client::Connect("127.0.0.1", port));
  return client->Stats();
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// The run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench";
  std::string git_sha = "unknown";
};

void MakeDirs(const std::string& path) {
  for (size_t pos = 0; (pos = path.find('/', pos + 1)) != std::string::npos;) {
    ::mkdir(path.substr(0, pos).c_str(), 0755);
  }
  ::mkdir(path.c_str(), 0755);
}

void RemoveTree(const std::string& path) {
  // Only ever the ingest directories this process created: the journal
  // and checkpoint files, then the directory.
  if (DIR* dir = ::opendir(path.c_str())) {
    while (const dirent* e = ::readdir(dir)) {
      if (std::strcmp(e->d_name, ".") && std::strcmp(e->d_name, "..")) {
        ::unlink((path + "/" + e->d_name).c_str());
      }
    }
    ::closedir(dir);
  }
  ::rmdir(path.c_str());
}

/// Median of a few direct SnapshotBuilder::Build timings over the model:
/// the candidate build, space transform, TA and quantized index.
double SnapshotBuildMs(const City& city) {
  auto store = embedding::LoadEmbeddingStore(city.model_path);
  if (!store.ok()) return 0.0;
  const serving::SnapshotBuilder builder(store.value(), city.pool,
                                         city.num_users,
                                         serving::SnapshotOptions{});
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const int64_t start = NowNs();
    const auto snapshot = builder.Build();
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Median(ms);
}

/// Direct replay of a sample of the window's own queries against the
/// published snapshot's retrieval calls.
struct Replay {
  double partner_us = 0.0;     // BatchTaSearch::SearchBatch, per query
  double group_us = 0.0;       // GroupTopEvents, per query
  double reciprocal_us = 0.0;  // ReciprocalSearch, per query
  double examined_frac = 0.0;  // partner pairs examined / candidate pairs
};

Replay ReplayQueries(const std::vector<Op>& ops,
                     const serving::ModelSnapshot& snap, double mean_batch) {
  std::vector<const serving::QueryRequest*> by_kind[3];
  const size_t cap[3] = {256, 64, 64};
  for (const Op& op : ops) {
    const int k = static_cast<int>(op.query.kind);
    if (!op.write && by_kind[k].size() < cap[k]) by_kind[k].push_back(&op.query);
  }
  Replay replay;
  const auto& partner = by_kind[static_cast<int>(QueryKind::kPartner)];
  if (!partner.empty() && snap.batch_searcher() != nullptr) {
    const size_t batch = std::clamp<size_t>(
        static_cast<size_t>(std::lround(mean_batch)), 1, 64);
    std::vector<std::vector<float>> vectors(partner.size());
    std::vector<recommend::BatchQuery> queries(partner.size());
    for (size_t i = 0; i < partner.size(); ++i) {
      snap.QueryVector(partner[i]->user, &vectors[i]);
      queries[i] = {vectors[i].data(), partner[i]->n, partner[i]->user};
    }
    std::vector<std::vector<recommend::SearchHit>> hits(batch);
    recommend::BatchTaSearch::Workspace workspace;
    size_t examined = 0;
    int64_t elapsed = 0;
    for (int pass = 0; pass < 2; ++pass) {  // the first pass warms up
      examined = 0;
      const int64_t start = NowNs();
      for (size_t i = 0; i < queries.size(); i += batch) {
        recommend::BatchSearchStats stats;
        snap.batch_searcher()->SearchBatch(
            &queries[i], std::min(batch, queries.size() - i), hits.data(),
            &stats, &workspace);
        examined += stats.points_examined;
      }
      elapsed = NowNs() - start;
    }
    replay.partner_us = Us(elapsed) / queries.size();
    replay.examined_frac = static_cast<double>(examined) /
                           (static_cast<double>(snap.num_candidate_pairs()) *
                            queries.size());
  }
  const auto& group = by_kind[static_cast<int>(QueryKind::kGroup)];
  if (!group.empty()) {
    const int64_t start = NowNs();
    for (const serving::QueryRequest* q : group) {
      recommend::GroupTopEvents(snap.model(), snap.shard_events(), q->user,
                                q->group, q->aggregator, q->n);
    }
    replay.group_us = Us(NowNs() - start) / group.size();
  }
  const auto& reciprocal = by_kind[static_cast<int>(QueryKind::kReciprocal)];
  if (!reciprocal.empty()) {
    recommend::ReciprocalScratch scratch;
    const int64_t start = NowNs();
    for (const serving::QueryRequest* q : reciprocal) {
      recommend::ReciprocalSearch(snap.model(), snap.searcher(), snap.space(),
                                  q->user, q->n, &scratch);
    }
    replay.reciprocal_us = Us(NowNs() - start) / reciprocal.size();
  }
  return replay;
}

/// Per request, the client's round trip minus the decorator's span for
/// the same request (requests with equal keys pair up in send order).
std::vector<double> SelfTimesUs(const std::vector<Op>& ops, const LoadResult& r,
                                std::vector<TimingBackend::Span> spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> client;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Reply& reply = r.replies[i];
    if (IsRead(ops[i]) && reply.outcome == Outcome::kOk) {
      client[RequestKey(ops[i].query)].emplace_back(reply.sent_ns,
                                                    reply.recv_ns);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const TimingBackend::Span& a, const TimingBackend::Span& b) {
              return a.submit_ns < b.submit_ns;
            });
  std::map<uint64_t, size_t> used;
  std::vector<double> self;
  for (const TimingBackend::Span& span : spans) {
    auto it = client.find(span.key);
    if (it == client.end()) continue;
    size_t& k = used[span.key];
    if (k == 0) std::sort(it->second.begin(), it->second.end());
    if (k >= it->second.size()) continue;
    const auto [sent, recv] = it->second[k++];
    self.push_back(Us((recv - sent) - (span.done_ns - span.submit_ns)));
  }
  return self;
}

std::vector<double> SpanUs(const std::vector<TimingBackend::Span>& spans) {
  std::vector<double> out;
  for (const auto& s : spans) out.push_back(Us(s.done_ns - s.submit_ns));
  return out;
}

class Bench {
 public:
  Bench(const Args& args, const Workload& workload)
      : args_(args), workload_(workload) {}
  ~Bench() {
    for (const std::string& dir : ingest_dirs_) RemoveTree(dir);
  }

  /// Returns the process exit code.
  int Run();

 private:
  /// Boots a stack and has it answer one query: the set-up time.
  Result<std::unique_ptr<ServeStack>> Boot(bool traced, double* seconds);
  /// Partner-only warm-up that brings the result cache to its steady
  /// state; its answers are not scored.
  void Warm(LoadGenerator* gen);
  /// The nominal window: offered load at the workload's rates.
  Result<Window> Measure(LoadGenerator* gen, uint16_t port,
                         std::vector<Op>* ops, LoadResult* result,
                         obs::MetricsSnapshot* before,
                         obs::MetricsSnapshot* after);
  double Capacity(LoadGenerator* gen);
  void CheckAnswers(ServeStack* stack, const std::vector<Op>& ops,
                    const LoadResult& result);
  void PostRunWriteCheck(ServeStack* stack);
  bool EndToEnd(std::vector<Metric>* metrics);
  bool PerLayer(std::vector<Metric>* metrics);
  bool Invalid(const Window& w);

  Args args_;
  const Workload& workload_;
  City city_;
  std::optional<Traffic> traffic_;
  std::shared_ptr<serving::ModelSnapshot> reference_;  // sharded oracle
  Checks checks_;
  std::vector<std::string> ingest_dirs_;
  std::vector<std::string> log_;
  int exit_code_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t candidate_pairs_ = 0;
  double cache_hit_frac_ = 0.0;
  double steal_frac_ = 0.0;
  bool realtime_ = false;
};

Result<std::unique_ptr<ServeStack>> Bench::Boot(bool traced, double* seconds) {
  StackOptions options;
  options.topology = workload_.topology;
  options.traced = traced;
  if (options.topology == Topology::kWrite) {
    options.ingest_dir = args_.work_dir + "/ingest-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(ingest_dirs_.size());
    ingest_dirs_.push_back(options.ingest_dir);
    RemoveTree(options.ingest_dir);
    MakeDirs(options.ingest_dir);
  }
  const int64_t start = NowNs();
  GEMREC_ASSIGN_OR_RETURN(auto stack, ServeStack::Boot(city_, options));
  GEMREC_ASSIGN_OR_RETURN(auto client,
                          net::Client::Connect("127.0.0.1", stack->port()));
  serving::QueryRequest first;
  first.n = kTopN;
  GEMREC_ASSIGN_OR_RETURN(net::QueryOutcome answer, client->Query(first));
  if (!answer.ok) return Status::Internal("first query refused");
  *seconds = static_cast<double>(NowNs() - start) / 1e9;
  candidate_pairs_ = 0;
  for (const auto& service : stack->services()) {
    candidate_pairs_ += service->CurrentSnapshot()->num_candidate_pairs();
  }
  return stack;
}

void Bench::Warm(LoadGenerator* gen) {
  gen->Run(traffic_->Make(workload_.warmup_rate, workload_.write_rate,
                          kWarmupSeconds, /*stream=*/1, /*partner_only=*/true),
           kReplyTimeout);
}

Result<Window> Bench::Measure(LoadGenerator* gen, uint16_t port,
                              std::vector<Op>* ops, LoadResult* result,
                              obs::MetricsSnapshot* before,
                              obs::MetricsSnapshot* after) {
  Window w;
  for (int attempt = 0; attempt < kMeasureAttempts; ++attempt) {
    // Streams 2, 4, 5: a repeated window sends fresh writes rather than
    // the same attendance records again.
    *ops = traffic_->Make(workload_.read_rate, workload_.write_rate,
                          args_.seconds, attempt == 0 ? 2 : 3 + attempt,
                          /*partner_only=*/false);
    MarkChecks(ops);
    GEMREC_ASSIGN_OR_RETURN(*before, FetchStats(port));
    w = RunWindow(gen, *ops, args_.seconds, 0, result);
    GEMREC_ASSIGN_OR_RETURN(*after, FetchStats(port));
    if (GeneratorKeptUp(w)) break;
    std::fprintf(stderr,
                 "nominal window %d discarded: the load generator fell "
                 "behind its schedule (send lag p99 %.0f us, achieved rate "
                 "%.4f of offered, steal %.3f)\n",
                 attempt + 1, w.send_lag_p99_us, w.achieved_rate_frac,
                 w.steal_frac);
  }
  const double queries = static_cast<double>(
      Count(*after, "gemrec_service_queries_total") -
      Count(*before, "gemrec_service_queries_total"));
  cache_hit_frac_ =
      static_cast<double>(Count(*after, "gemrec_service_cache_hits_total") -
                          Count(*before, "gemrec_service_cache_hits_total")) /
      std::max(1.0, queries);
  steal_frac_ = w.steal_frac;
  realtime_ = w.realtime;
  attempted_ = w.attempted;
  failed_ = w.failed;
  std::printf("nominal window: %zu ops, %zu failed (%zu error frames, %zu "
              "transport, %zu timeouts, %zu partial), p50 %.0f us, p99 %.0f "
              "us, cache hits %.3f, send lag p99 %.0f us, steal %.3f\n",
              w.attempted, w.failed, w.errors, w.transport, w.timeouts,
              w.partial, w.p50_us, w.p99_us, cache_hit_frac_,
              w.send_lag_p99_us, w.steal_frac);
  return w;
}

bool Bench::Invalid(const Window& w) {
  if (GeneratorKeptUp(w)) return false;
  std::fprintf(stderr, "invalid run: every nominal window was discarded\n");
  exit_code_ = 2;
  return true;
}

/// A rung passes when the reads in flight did not grow across its
/// second half and every one of its sub-windows met the limits.
bool RungPassed(const Window& w) {
  return w.backlog_growth <= kMaxBacklogGrowth && w.passed == w.windows;
}

double Bench::Capacity(LoadGenerator* gen) {
  const auto rate = [](int rung) {
    return kLadderBase *
           std::pow(2.0, static_cast<double>(rung) / kRungsPerOctave);
  };
  std::map<int, Window> steps;
  const auto pass = [&](int rung) {
    auto it = steps.find(rung);
    if (it == steps.end()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::vector<Op> ops =
          traffic_->Make(rate(rung), workload_.write_rate, kRungSeconds,
                         /*stream=*/1000 + rung, /*partner_only=*/false);
      it = steps
               .emplace(rung, RunWindow(gen, ops, kRungSeconds,
                                        kRungSubWindows, nullptr))
               .first;
      const Window& w = it->second;
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  rung %3d offered %8.0f/s  completed %8.0f/s  p99 %9.0f us"
                    "  failed %.4f  passed %d/%d",
                    rung, rate(rung), w.completed_read_rate, w.p99_us,
                    static_cast<double>(w.failed) /
                        std::max<size_t>(1, w.attempted),
                    w.passed, w.windows);
      log_.push_back(line);
    }
    return RungPassed(it->second);
  };
  // Walk half-octaves up from the workload's start rung (or octaves
  // down), then bisect to a single rung.
  int lo = workload_.ladder_start;
  int hi;
  if (pass(lo)) {
    hi = lo + kRungsPerOctave / 2;
    while (pass(hi)) {
      lo = hi;
      hi += kRungsPerOctave / 2;
    }
  } else {
    hi = lo;
    do {
      lo -= kRungsPerOctave;
    } while (lo > 0 && !pass(lo));
  }
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    (pass(mid) ? lo : hi) = mid;
  }
  return steps.count(lo) ? steps[lo].completed_read_rate : 0.0;
}

void Bench::CheckAnswers(ServeStack* stack, const std::vector<Op>& ops,
                         const LoadResult& result) {
  switch (workload_.topology) {
    case Topology::kSingle:
      CheckSampled(ops, result, *stack->services()[0]->CurrentSnapshot(),
                   /*check_epoch=*/true, /*exact_group_bound=*/true, &checks_);
      break;
    case Topology::kSharded:
      CheckSampled(ops, result, *reference_, /*check_epoch=*/false,
                   /*exact_group_bound=*/false, &checks_);
      break;
    case Topology::kWrite:
      CheckWriteOrder(ops, result, &checks_);
      break;
  }
}

/// After the writes stop: flush the ingest queue, then every answer
/// must come from the final snapshot and equal its oracle.
void Bench::PostRunWriteCheck(ServeStack* stack) {
  stack->ingest()->Flush();
  const auto snap = stack->services()[0]->CurrentSnapshot();
  auto client = net::Client::Connect("127.0.0.1", stack->port());
  if (!client.ok()) {
    checks_.Fail("post-run connect: " + client.status().ToString());
    return;
  }
  std::vector<Op> ops = traffic_->Make(workload_.read_rate, 0.0, 1.0,
                                       /*stream=*/3, /*partner_only=*/true);
  ops.resize(std::min(ops.size(), kChecksPerKind));
  for (const Op& op : ops) {
    auto outcome = (*client)->Query(op.query);
    if (!outcome.ok() || !outcome->ok) {
      checks_.Fail("post-flush query failed");
      continue;
    }
    if (outcome->response.epoch != snap->epoch()) {
      checks_.Fail("post-flush answer from epoch " +
                   std::to_string(outcome->response.epoch) + ", published " +
                   std::to_string(snap->epoch()));
      continue;
    }
    Reply reply;
    reply.items = outcome->response.items;
    reply.ta_bound = outcome->response.ta_bound;
    CheckOne(op.query, reply, *snap, /*exact_group_bound=*/true, &checks_);
  }
}

bool Bench::EndToEnd(std::vector<Metric>* metrics) {
  // Set-up, repeated, each stack torn down before the next boots: the
  // first half before the window (the last of them serves it) and the
  // rest after, so the median spans the shared host's load at both ends
  // of the run.
  std::vector<double> setup_seconds;
  std::unique_ptr<ServeStack> stack;
  const auto boot = [&]() {
    stack.reset();
    double seconds = 0.0;
    auto booted = Boot(/*traced=*/false, &seconds);
    if (!booted.ok()) {
      std::fprintf(stderr, "boot: %s\n", booted.status().ToString().c_str());
      exit_code_ = 1;
      return false;
    }
    stack = std::move(booted).value();
    setup_seconds.push_back(seconds);
    return true;
  };
  while (setup_seconds.size() < (kSetupRepeats + 1) / 2) {
    if (!boot()) return false;
  }
  Window w;
  {
    auto gen = LoadGenerator::Connect(stack->port(), kConnections);
    if (!gen.ok()) return false;
    Warm(gen->get());
    std::vector<Op> ops;
    LoadResult result;
    obs::MetricsSnapshot before, after;
    auto window = Measure(gen->get(), stack->port(), &ops, &result, &before,
                          &after);
    if (!window.ok() || Invalid(*window)) return false;
    w = window.value();
    CheckAnswers(stack.get(), ops, result);
    if (workload_.topology == Topology::kWrite) PostRunWriteCheck(stack.get());
  }
  while (setup_seconds.size() < kSetupRepeats) {
    if (!boot()) return false;
  }
  stack.reset();
  std::printf("setup seconds:");
  for (const double s : setup_seconds) std::printf(" %.3f", s);
  std::printf("\n");
  *metrics = {
      {"setup_s", Median(setup_seconds), "s"},
      {"cpu_us_per_query",
       Us(w.process_cpu_ns - w.main_cpu_ns) / std::max<size_t>(1, w.reads_ok),
       "us"},
  };
  return true;
}

enum Role { kNetRole, kServingRole, kShardRole, kIngestRole, kLoadgenRole, kRoles };

bool Bench::PerLayer(std::vector<Metric>* metrics) {
  auto& m = *metrics;
  // 1. Untraced reference window (answers, write latencies, generator),
  //    then the capacity ladder on the same stack.
  Window untraced;
  {
    double seconds = 0.0;
    auto stack = Boot(/*traced=*/false, &seconds);
    if (!stack.ok()) return false;
    auto gen = LoadGenerator::Connect((*stack)->port(), kConnections);
    if (!gen.ok()) return false;
    Warm(gen->get());
    std::vector<Op> ops;
    LoadResult result;
    obs::MetricsSnapshot before, after;
    auto window = Measure(gen->get(), (*stack)->port(), &ops, &result, &before,
                          &after);
    if (!window.ok() || Invalid(*window)) return false;
    untraced = window.value();
    CheckAnswers(stack->get(), ops, result);
    std::vector<double> ack_us, freshness_ms;
    if (workload_.topology == Topology::kWrite) {
      WriteLatencies(ops, result, &ack_us, &freshness_ms);
    }
    m.push_back({"query_p50_us", untraced.p50_us, "us"});
    m.push_back({"query_p99_us", untraced.p99_us, "us"});
    m.push_back({"capacity_qps", Capacity(gen->get()), "1/s"});
    if (workload_.topology == Topology::kWrite) PostRunWriteCheck(stack->get());
    m.push_back({"failed_frac",
                 static_cast<double>(untraced.failed) /
                     std::max<size_t>(1, untraced.attempted),
                 "ratio"});
    m.push_back({"write_ack_p50_us", Percentile(ack_us, 0.50), "us"});
    m.push_back({"write_ack_p99_us", Percentile(ack_us, 0.99), "us"});
    m.push_back({"freshness_p50_ms", Percentile(freshness_ms, 0.50), "ms"});
    m.push_back({"freshness_p99_ms", Percentile(freshness_ms, 0.99), "ms"});
  }
  const size_t attempted = attempted_, failed = failed_;
  const double build_ms = SnapshotBuildMs(city_);

  // 2. Traced window: decorators, per-thread CPU, the stack's own stats.
  double seconds = 0.0;
  auto booted = Boot(/*traced=*/true, &seconds);
  if (!booted.ok()) return false;
  ServeStack& stack = *booted.value();
  auto gen = LoadGenerator::Connect(stack.port(), kConnections);
  if (!gen.ok()) return false;
  Warm(gen->get());
  stack.front_timing()->TakeSpans();
  for (const auto& t : stack.shard_timing()) t->TakeSpans();
  std::vector<Op> ops;
  LoadResult result;
  obs::MetricsSnapshot before, after;
  const ThreadCpu threads_before = SampleThreadCpu();
  const int64_t process_before = ProcessCpuNs();
  auto window =
      Measure(gen->get(), stack.port(), &ops, &result, &before, &after);
  const int64_t process_after = ProcessCpuNs();
  const ThreadCpu threads_after = SampleThreadCpu();
  if (!window.ok() || Invalid(*window)) return false;
  const Window& traced = window.value();
  attempted_ += attempted;
  failed_ += failed;

  // Thread roles, from who called the decorators.
  const bool sharded = workload_.topology == Topology::kSharded;
  std::map<pid_t, Role> role;
  const auto assign = [&](const std::set<pid_t>& tids, Role r) {
    for (const pid_t t : tids) role.emplace(t, r);
  };
  role.emplace(CurrentTid(), kLoadgenRole);
  assign(stack.front_timing()->submit_threads(), kNetRole);
  for (const auto& t : stack.shard_timing()) assign(t->submit_threads(), kNetRole);
  assign(stack.front_timing()->callback_threads(),
         sharded ? kShardRole : kServingRole);
  for (const auto& t : stack.shard_timing()) {
    assign(t->callback_threads(), kServingRole);
  }
  assign(stack.ingest_threads(), kIngestRole);
  double cpu_us[kRoles] = {};
  for (const auto& [tid, r] : role) {
    const auto after_it = threads_after.find(tid);
    const auto before_it = threads_before.find(tid);
    if (after_it == threads_after.end()) continue;
    cpu_us[r] += Us(after_it->second -
                    (before_it == threads_before.end() ? 0 : before_it->second));
  }
  const double process_us = Us(process_after - process_before);
  double attributed = 0.0;
  for (const double c : cpu_us) attributed += c;
  const double unattributed = process_us - attributed;
  char ledger[300];
  std::snprintf(ledger, sizeof(ledger),
                "cpu ledger, traced window (ms): net %.1f + serving %.1f + "
                "shard %.1f + ingest %.1f + loadgen %.1f + unattributed %.1f "
                "= process %.1f",
                cpu_us[kNetRole] / 1e3, cpu_us[kServingRole] / 1e3,
                cpu_us[kShardRole] / 1e3, cpu_us[kIngestRole] / 1e3,
                cpu_us[kLoadgenRole] / 1e3, unattributed / 1e3,
                process_us / 1e3);
  log_.push_back(ledger);

  const double reads = std::max<size_t>(1, traced.reads_ok);
  size_t writes = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].write && result.replies[i].outcome == Outcome::kOk) ++writes;
  }
  const auto front_spans = stack.front_timing()->TakeSpans();
  std::vector<TimingBackend::Span> shard_spans;
  for (const auto& t : stack.shard_timing()) {
    for (const auto& s : t->TakeSpans()) shard_spans.push_back(s);
  }
  const std::vector<double> self_us = SelfTimesUs(ops, result, front_spans);
  const std::vector<double> front_us = SpanUs(front_spans);
  const std::vector<double> backend_us =
      sharded ? SpanUs(shard_spans) : front_us;
  std::vector<double> rtt_us;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Reply& reply = result.replies[i];
    if (IsRead(ops[i]) && reply.outcome == Outcome::kOk) {
      rtt_us.push_back(Us(reply.recv_ns - reply.sent_ns));
    }
  }

  const auto hist = [&](const char* name) {
    return Hist(after, name).MinusBaseline(Hist(before, name));
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(Count(after, name) - Count(before, name));
  };
  const double queries = std::max(1.0, count("gemrec_service_queries_total"));
  const double hits = count("gemrec_service_cache_hits_total");
  const double batch_misses =
      (queries - hits) / std::max(1.0, count("gemrec_service_batches_total"));
  const obs::HistogramData rpc = hist("gemrec_shard_rpc_us");
  const double shard_backend_p50 = sharded ? Percentile(front_us, 0.5) : 0.0;
  const Replay replay = ReplayQueries(
      ops, *stack.services()[0]->CurrentSnapshot(), batch_misses);

  m.push_back({"net.self_us_p50", Percentile(self_us, 0.50), "us"});
  m.push_back({"net.self_us_p99", Percentile(self_us, 0.99), "us"});
  m.push_back({"net.cpu_us_per_query", cpu_us[kNetRole] / reads, "us"});
  m.push_back({"serving.backend_us_p50", Percentile(backend_us, 0.50), "us"});
  m.push_back({"serving.backend_us_p99", Percentile(backend_us, 0.99), "us"});
  m.push_back({"serving.queue_wait_us_p50",
               hist("gemrec_service_queue_wait_us").Percentile(0.50), "us"});
  m.push_back({"serving.queue_wait_us_p99",
               hist("gemrec_service_queue_wait_us").Percentile(0.99), "us"});
  m.push_back({"serving.cache_hit_frac", hits / queries, "ratio"});
  m.push_back({"serving.batch_misses_mean", batch_misses, "count"});
  m.push_back({"serving.cpu_us_per_query", cpu_us[kServingRole] / reads, "us"});
  m.push_back({"recommend.partner_us_per_query", replay.partner_us, "us"});
  m.push_back({"recommend.reciprocal_us", replay.reciprocal_us, "us"});
  m.push_back({"recommend.group_us", replay.group_us, "us"});
  m.push_back({"recommend.quantize_scan_us_p50",
               hist("gemrec_service_quantize_scan_us").Percentile(0.50), "us"});
  m.push_back({"recommend.rerank_us_p50",
               hist("gemrec_service_rerank_us").Percentile(0.50), "us"});
  m.push_back({"recommend.examined_frac", replay.examined_frac, "ratio"});
  m.push_back({"serving.journal_append_us_p50",
               hist("gemrec_ingest_journal_append_us").Percentile(0.50), "us"});
  m.push_back({"embedding.foldin_us_p50",
               hist("gemrec_ingest_apply_us").Percentile(0.50), "us"});
  m.push_back({"serving.snapshot_build_ms", build_ms, "ms"});
  m.push_back({"serving.publish_build_ms",
               hist("gemrec_ingest_publish_build_us").Percentile(0.50) / 1e3,
               "ms"});
  m.push_back({"serving.publishes_per_s",
               count("gemrec_service_publishes_total") / args_.seconds, "1/s"});
  m.push_back({"serving.ingest_cpu_us_per_write",
               writes ? cpu_us[kIngestRole] / writes : 0.0, "us"});
  m.push_back({"shard.backend_us_p50", shard_backend_p50, "us"});
  m.push_back({"shard.rpc_us_p50", rpc.Percentile(0.50), "us"});
  m.push_back({"shard.rpc_us_p99", rpc.Percentile(0.99), "us"});
  m.push_back({"shard.self_us_p50",
               sharded ? shard_backend_p50 - rpc.Percentile(0.50) : 0.0, "us"});
  m.push_back({"shard.cpu_us_per_query", cpu_us[kShardRole] / reads, "us"});
  m.push_back({"loadgen.send_lag_p99_us", untraced.send_lag_p99_us, "us"});
  m.push_back({"loadgen.cpu_us_per_query",
               Us(untraced.main_cpu_ns) / std::max<size_t>(1, untraced.reads_ok),
               "us"});
  m.push_back({"loadgen.achieved_rate_frac", untraced.achieved_rate_frac,
               "ratio"});
  m.push_back({"trace.overhead_frac", traced.p50_us / untraced.p50_us - 1.0,
               "ratio"});
  m.push_back({"trace.unexplained_us_p50",
               Percentile(rtt_us, 0.50) - Percentile(self_us, 0.50) -
                   Percentile(front_us, 0.50),
               "us"});
  m.push_back({"ledger.unattributed_cpu_frac",
               unattributed / std::max(1.0, process_us), "ratio"});
  m.push_back({"host.steal_frac", traced.steal_frac, "ratio"});
  return true;
}

int Bench::Run() {
  MakeDirs(args_.work_dir);
  auto city = PrepareCity(args_.work_dir);
  if (!city.ok()) {
    std::fprintf(stderr, "inputs: %s\n", city.status().ToString().c_str());
    return 1;
  }
  city_ = std::move(city).value();
  traffic_.emplace(workload_, city_, args_.seed);
  if (workload_.topology == Topology::kSharded) {
    auto store = embedding::LoadEmbeddingStore(city_.model_path);
    if (!store.ok()) return 1;
    reference_ = std::make_shared<serving::ModelSnapshot>(
        store.value(), city_.pool, city_.num_users, serving::SnapshotOptions{});
  }

  std::vector<Metric> metrics;
  if (!(args_.trace ? PerLayer(&metrics) : EndToEnd(&metrics))) {
    return exit_code_ != 0 ? exit_code_ : 1;
  }
  for (const std::string& line : log_) std::printf("%s\n", line.c_str());
  std::printf("answers checked: partner %zu, group %zu, reciprocal %zu; "
              "mismatches %zu, sampled reads unanswered %zu\n",
              checks_.compared[0], checks_.compared[1], checks_.compared[2],
              checks_.mismatches, checks_.unanswered);
  // A check that compared nothing of a kind the workload sends proves
  // nothing about it.
  bool covered = true;
  for (const QueryKind kind :
       {QueryKind::kPartner, QueryKind::kGroup, QueryKind::kReciprocal}) {
    const bool sent = kind == QueryKind::kPartner || workload_.mixed_kinds;
    if (sent && checks_.compared[static_cast<int>(kind)] == 0) {
      std::fprintf(stderr, "CHECK FAILED: no %s answer was compared\n",
                   recommend::QueryKindName(kind));
      covered = false;
    }
  }
  std::printf(
      "{\"header\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"git_sha\": %s, \"build_type\": %s, "
      "\"kernel_variant\": %s, \"nproc\": %u, \"users\": %u, "
      "\"pool_events\": %zu, \"candidate_pairs\": %zu, "
      "\"read_rate\": %s, \"write_rate\": %s, \"cache_hit_frac\": %s, "
      "\"steal_frac\": %s, \"loadgen_realtime\": %s}}\n",
      JsonString(workload_.name).c_str(),
      static_cast<unsigned long long>(args_.seed), args_.trace ? 1 : 0,
      JsonNumber(args_.seconds).c_str(), JsonString(args_.git_sha).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(vec_detail::KernelVariant()).c_str(),
      std::thread::hardware_concurrency(), city_.num_users, city_.pool.size(),
      candidate_pairs_, JsonNumber(workload_.read_rate).c_str(),
      JsonNumber(workload_.write_rate).c_str(),
      JsonNumber(cache_hit_frac_).c_str(), JsonNumber(steal_frac_).c_str(),
      realtime_ ? "true" : "false");
  const bool correct = checks_.ok() && covered;
  std::string json =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_ + checks_.mismatches) +
      ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 3;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0.0;
}

}  // namespace
}  // namespace gemrec::perfbench

int main(int argc, char** argv) {
  using namespace gemrec::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--git-sha SHA]\n");
    return 64;
  }
  for (const Workload& workload : kWorkloads) {
    if (args.workload == workload.name) return Bench(args, workload).Run();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 64;
}
