#ifndef GEMREC_SERVING_INGESTION_QUEUE_H_
#define GEMREC_SERVING_INGESTION_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "ebsn/types.h"
#include "embedding/online_update.h"
#include "obs/metrics.h"
#include "serving/ingest_journal.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"

namespace gemrec::serving {

struct IngestionQueueOptions {
  /// Write-ahead journal file (required). Every acknowledged record is
  /// fdatasync'd here before its fold-in runs, and replayed by Start
  /// after a crash.
  std::string journal_path;
  /// Checkpoint base path; empty disables checkpointing (the journal
  /// then grows until the process restarts against a fresh base).
  std::string checkpoint_base;
  /// Admission bound: records accepted but not yet applied. Beyond it
  /// SubmitAsync sheds synchronously (the net layer answers with a
  /// typed OVERLOADED error).
  size_t max_pending = 1024;
  /// Publish a delta snapshot once this many records applied since the
  /// last publish...
  size_t publish_threshold = 64;
  /// ...or once the oldest unpublished record is this stale.
  std::chrono::milliseconds publish_interval{200};
  /// Checkpoint (store + pool to checkpoint_base, then journal reset)
  /// every this many applied records; 0 = only explicit Checkpoint().
  size_t checkpoint_every = 0;
  /// Fold-in options for cold events and cold users. Must stay fixed
  /// for the journal's lifetime: replay re-applies records with these
  /// options, and bitwise recovery needs the originals.
  embedding::OnlineUpdateOptions foldin;
  /// Attendance-nudge options (iterations is the nudge step count).
  embedding::OnlineUpdateOptions nudge = [] {
    embedding::OnlineUpdateOptions o;
    o.iterations = 20;
    return o;
  }();
  /// Test-only gate invoked on the ingest thread before each batch is
  /// processed; lets tests hold the thread to fill the queue
  /// deterministically.
  std::function<void()> pre_batch_hook_for_testing;
};

/// Admission verdict of SubmitAsync — typed so the net layer can map
/// each case to its wire error without string matching.
enum class IngestAdmission {
  kAccepted,
  kQueueFull,      // -> ErrorCode::kOverloaded
  kShuttingDown,   // -> ErrorCode::kShuttingDown
};

/// The write path of the serving stack: a bounded MPSC queue feeding
/// one ingest thread that (1) validates records against the staging
/// store, (2) appends them to the CRC32C write-ahead journal and
/// fdatasyncs once per batch, (3) acknowledges them, (4) applies the
/// fold-ins to the SnapshotBuilder staging store, and (5) publishes
/// delta snapshots through RecommendationService::Publish on a
/// threshold/interval cadence — so a live attendance/new-event stream
/// becomes retrievable (including through the quantized batched path)
/// without a retrain. A publish is SnapshotBuilder::BuildNext: it
/// ranks again only the partners the applied records can reach and
/// reuses the previous snapshot's lists for the rest.
///
/// Durability contract: an acknowledged record survives SIGKILL at any
/// instruction. Start() recovers the newest checkpoint (or the
/// operator-provided base store the builder was constructed with),
/// replays every journal record past the checkpoint watermark onto the
/// staging store, and publishes the recovered snapshot before
/// accepting new work. Ack order == journal order == replay order, and
/// each fold-in is deterministic given the staging store and fixed
/// options, so recovery is bitwise identical to the crashed timeline.
///
/// Threading: SubmitAsync is thread-safe and non-blocking (net event
/// loop callers). The builder is owned by the ingest thread after
/// Start — respecting SnapshotBuilder's single-updater contract — and
/// control operations (ReloadBase, Checkpoint) are executed on it via
/// a control queue. Ack callbacks run on the ingest thread and must
/// not block.
class IngestionQueue {
 public:
  /// Fired on the ingest thread once the record is durably journaled
  /// and applied (OK + its seq), or with the validation/apply error.
  using AckCallback = std::function<void(Status, uint64_t seq)>;

  /// `service` and `builder` must outlive the queue. The builder's
  /// staging store at Start is the recovery base when no checkpoint
  /// exists.
  IngestionQueue(RecommendationService* service, SnapshotBuilder* builder,
                 IngestionQueueOptions options);
  /// Calls Shutdown().
  ~IngestionQueue();

  IngestionQueue(const IngestionQueue&) = delete;
  IngestionQueue& operator=(const IngestionQueue&) = delete;

  /// Recovery + liftoff: loads the newest checkpoint (if any), opens
  /// the journal (truncating a torn tail), replays records past the
  /// watermark, publishes the recovered snapshot, then starts the
  /// ingest thread. When recovery applied nothing and the service
  /// already serves a snapshot of exactly the builder's inputs, Start
  /// keeps it (SnapshotBuilder::AdoptIfCurrent) and publishes nothing.
  /// Must be called once before any Submit.
  Status Start();

  /// Non-blocking admission. On kAccepted the ack callback fires on
  /// the ingest thread exactly once; on any other verdict it never
  /// fires.
  IngestAdmission SubmitAsync(IngestRecord record, AckCallback ack);

  /// Blocking wrapper: admission + ack in one call. Returns the
  /// record's seq, the ack error, or the admission verdict mapped to
  /// FailedPrecondition (shutting down) / a "queue full" IoError-free
  /// typed message.
  Result<uint64_t> Submit(IngestRecord record);

  /// Blocks until everything accepted before the call is processed AND
  /// covered by a publish (forces an off-cadence publish if needed).
  void Flush();

  /// Swaps the base artifact under live ingestion — `serve --reload`
  /// composed with the write path. Executed on the ingest thread:
  /// load + shape-validate `path`, reset the staging store, re-apply
  /// the journal tail (acked records since the last checkpoint — older
  /// ones are assumed baked into the retrained artifact), checkpoint
  /// if enabled, build + publish. On failure the staging store and
  /// serving snapshot are untouched and the service's reload-failure
  /// counter is bumped.
  Status ReloadBase(const std::string& path);

  /// Forces a checkpoint now (requires checkpoint_base). On success
  /// the journal has been reset and older checkpoints pruned.
  Status Checkpoint();

  /// Drains accepted records (journal + apply + ack), publishes any
  /// unpublished tail, then stops the ingest thread. Idempotent.
  /// Submissions racing Shutdown are either drained or shed with
  /// kShuttingDown — never dropped silently after an ack.
  void Shutdown();

  /// Records recovered by Start's replay.
  uint64_t replayed() const { return replayed_; }
  /// False when Start found (and dropped) a torn journal tail.
  bool recovered_clean() const { return recovered_clean_; }

 private:
  struct Pending {
    IngestRecord record;
    AckCallback ack;
    std::chrono::steady_clock::time_point accepted_at;
  };
  enum class ControlKind { kReload, kCheckpoint };
  struct Control {
    ControlKind kind;
    std::string path;  // kReload
    std::promise<Status> done;
  };

  void IngestLoop();
  void ProcessBatch(std::vector<Pending>* batch);
  Status ValidateRecord(const IngestRecord& record) const;
  Status ApplyRecord(const IngestRecord& record);
  /// Publishes when forced or when threshold/interval say so.
  void MaybePublish(bool force);
  void DoPublish();
  Status DoCheckpoint();
  Status DoReload(const std::string& path);
  void RegisterMetrics();

  RecommendationService* service_;
  SnapshotBuilder* builder_;
  IngestionQueueOptions options_;

  std::optional<IngestJournal> journal_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // ingest thread wakeups
  std::condition_variable flush_cv_;  // Flush/Submit waiters
  std::deque<Pending> pending_;
  std::deque<Control> controls_;
  bool shutdown_ = false;
  bool started_ = false;
  bool stopped_ = false;  // ingest thread has exited
  uint64_t accepted_count_ = 0;
  uint64_t processed_count_ = 0;  // acked (ok or error)
  /// True while some applied record is not yet covered by a publish —
  /// what Flush actually waits on (rejected records never publish, so
  /// a publish-count watermark would deadlock it).
  bool has_unpublished_ = false;
  uint64_t flush_waiters_ = 0;

  // Ingest-thread-only state.
  uint64_t seq_counter_ = 0;
  uint64_t checkpoint_seq_ = 0;
  /// Acked records since the last checkpoint (mirrors the journal);
  /// re-applied by ReloadBase onto a fresh base artifact.
  std::vector<IngestRecord> live_records_;
  size_t unpublished_ = 0;
  size_t applied_since_checkpoint_ = 0;
  std::chrono::steady_clock::time_point oldest_unpublished_;

  uint64_t replayed_ = 0;
  bool recovered_clean_ = true;

  // gemrec_ingest_* metric handles (registry owned by the service).
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_journal_appends_ = nullptr;
  obs::Counter* m_journal_bytes_ = nullptr;
  obs::Counter* m_publishes_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_replayed_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_unpublished_ = nullptr;
  obs::Histogram* m_journal_append_us_ = nullptr;
  obs::Histogram* m_apply_us_ = nullptr;
  obs::Histogram* m_publish_build_us_ = nullptr;
  obs::Histogram* m_publish_lag_us_ = nullptr;
  obs::Histogram* m_ack_us_ = nullptr;

  std::thread thread_;
};

}  // namespace gemrec::serving

#endif  // GEMREC_SERVING_INGESTION_QUEUE_H_
