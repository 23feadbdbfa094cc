#include "serving/ingestion_queue.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "ebsn/time_slots.h"
#include "embedding/serialization.h"

namespace gemrec::serving {
namespace {

/// Records drained per ingest-thread visit — one journal fsync covers
/// the whole batch (group commit).
constexpr size_t kMaxApplyBatch = 64;

/// Nice value of the ingest thread. Publishes build snapshots on this
/// thread, which on few-core hosts steals cycles from the
/// latency-critical read path; a positive nice keeps build CPU
/// subordinate to query workers. Writes are durability-critical, not
/// latency-critical, so acks tolerating a deprioritized thread is the
/// intended trade.
constexpr int kIngestThreadNice = 10;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since,
                   std::chrono::steady_clock::time_point now) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - since)
          .count());
}

}  // namespace

IngestionQueue::IngestionQueue(RecommendationService* service,
                               SnapshotBuilder* builder,
                               IngestionQueueOptions options)
    : service_(service), builder_(builder), options_(std::move(options)) {
  GEMREC_CHECK(service_ != nullptr && builder_ != nullptr);
  GEMREC_CHECK(!options_.journal_path.empty())
      << "IngestionQueue requires a journal path";
  options_.max_pending = std::max<size_t>(1, options_.max_pending);
  options_.publish_threshold = std::max<size_t>(1, options_.publish_threshold);
  RegisterMetrics();
}

IngestionQueue::~IngestionQueue() { Shutdown(); }

void IngestionQueue::RegisterMetrics() {
  obs::MetricsRegistry* r = service_->metrics();
  m_accepted_ = r->GetCounter("gemrec_ingest_accepted_total",
                              "Records admitted to the ingest queue.");
  m_shed_ = r->GetCounter(
      "gemrec_ingest_shed_total",
      "Records shed at admission (queue full or shutting down).");
  m_rejected_ = r->GetCounter(
      "gemrec_ingest_rejected_total",
      "Accepted records acknowledged with a validation/journal/apply "
      "error.");
  m_applied_ = r->GetCounter("gemrec_ingest_applied_total",
                             "Fold-ins applied to the staging store.");
  m_journal_appends_ = r->GetCounter(
      "gemrec_ingest_journal_appends_total",
      "Group commits to the write-ahead journal (one fdatasync each).");
  m_journal_bytes_ = r->GetCounter("gemrec_ingest_journal_bytes_total",
                                   "Bytes appended to the journal.");
  m_publishes_ = r->GetCounter("gemrec_ingest_publishes_total",
                               "Delta snapshots published by the queue.");
  m_checkpoints_ = r->GetCounter(
      "gemrec_ingest_checkpoints_total",
      "Checkpoints written (store + pool), each followed by a journal "
      "reset.");
  m_replayed_ = r->GetCounter(
      "gemrec_ingest_replayed_total",
      "Journal records replayed onto the staging store at startup.");
  m_queue_depth_ = r->GetGauge("gemrec_ingest_queue_depth",
                               "Records accepted but not yet processed.");
  m_unpublished_ = r->GetGauge(
      "gemrec_ingest_unpublished",
      "Applied records not yet covered by a published snapshot.");
  m_journal_append_us_ = r->GetHistogram(
      "gemrec_ingest_journal_append_us",
      "Journal group-commit latency (encode + write + fdatasync).");
  m_apply_us_ = r->GetHistogram("gemrec_ingest_apply_us",
                                "Per-record fold-in latency.");
  m_publish_build_us_ = r->GetHistogram(
      "gemrec_ingest_publish_build_us",
      "Delta snapshot build + publish latency.");
  m_publish_lag_us_ = r->GetHistogram(
      "gemrec_ingest_publish_lag_us",
      "Age of the oldest unpublished record at publish time.");
  m_ack_us_ = r->GetHistogram(
      "gemrec_ingest_ack_us",
      "Admission-to-acknowledgement latency (queue wait + journal + "
      "fold-in).");
}

Status IngestionQueue::Start() {
  GEMREC_CHECK(!started_) << "IngestionQueue started twice";

  // 1. The newest checkpoint (when checkpointing is configured)
  //    replaces the operator-provided base the builder was constructed
  //    with.
  bool checkpoint_loaded = false;
  if (!options_.checkpoint_base.empty()) {
    auto checkpoint = LoadIngestCheckpoint(options_.checkpoint_base);
    if (checkpoint.ok()) {
      checkpoint_loaded = true;
      IngestCheckpoint& cp = checkpoint.value();
      // The checkpoint's store and pool replace the builder's together,
      // so they are checked against each other.
      GEMREC_RETURN_IF_ERROR(ValidateStoreShape(cp.store, cp.event_pool,
                                                builder_->num_users()));
      builder_->set_event_pool(cp.event_pool);
      builder_->ResetStagingStore(std::move(cp.store));
      checkpoint_seq_ = cp.seq;
      GEMREC_LOG(Info) << "ingest recovery: checkpoint "
                       << options_.checkpoint_base << "." << cp.seq
                       << " loaded (" << builder_->event_pool().size()
                       << " pool events)";
    } else if (checkpoint.status().code() != StatusCode::kNotFound) {
      return checkpoint.status();
    }
  }
  // 2. Journal: open (dropping any torn tail), then replay records past
  //    the checkpoint watermark in ack order.
  GEMREC_ASSIGN_OR_RETURN(IngestJournal journal,
                          IngestJournal::Open(options_.journal_path));
  journal_.emplace(std::move(journal));
  GEMREC_ASSIGN_OR_RETURN(
      IngestJournal::ReplayResult replay,
      IngestJournal::Replay(options_.journal_path, checkpoint_seq_));
  recovered_clean_ = replay.clean;
  for (IngestRecord& record : replay.records) {
    Status s = ValidateRecord(record);
    if (s.ok()) s = ApplyRecord(record);
    if (!s.ok()) {
      // The same record failed the same deterministic checks when it
      // was journaled, so it was never acknowledged as applied —
      // skipping it loses nothing.
      GEMREC_LOG(Warning) << "ingest replay skips record seq " << record.seq
                          << ": " << s.ToString();
      continue;
    }
    ++replayed_;
    live_records_.push_back(std::move(record));
  }
  m_replayed_->Increment(replayed_);
  if (replayed_ > 0 || !recovered_clean_) {
    GEMREC_LOG(Info) << "ingest recovery: replayed " << replayed_
                     << " journal records (tail "
                     << (recovered_clean_ ? "clean" : "torn, dropped")
                     << ")";
  }
  seq_counter_ = std::max(journal_->last_seq(), checkpoint_seq_);

  // 3. Every acknowledged write is retrievable before the first new
  //    submission is accepted. When recovery changed nothing and the
  //    service already serves a snapshot of exactly the builder's
  //    inputs (a boot that published Build() first), that snapshot
  //    becomes the delta base instead of a second build.
  const bool recovered_nothing = !checkpoint_loaded && replayed_ == 0;
  if (!recovered_nothing ||
      !builder_->AdoptIfCurrent(service_->CurrentSnapshot())) {
    service_->Publish(builder_->BuildNext());
    m_publishes_->Increment();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  thread_ = std::thread([this] { IngestLoop(); });
  return Status::Ok();
}

IngestAdmission IngestionQueue::SubmitAsync(IngestRecord record,
                                            AckCallback ack) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || shutdown_) {
    m_shed_->Increment();
    return IngestAdmission::kShuttingDown;
  }
  if (pending_.size() >= options_.max_pending) {
    m_shed_->Increment();
    return IngestAdmission::kQueueFull;
  }
  Pending pending;
  pending.record = std::move(record);
  pending.ack = std::move(ack);
  pending.accepted_at = std::chrono::steady_clock::now();
  pending_.push_back(std::move(pending));
  ++accepted_count_;
  m_accepted_->Increment();
  m_queue_depth_->Add(1);
  cv_.notify_one();
  return IngestAdmission::kAccepted;
}

Result<uint64_t> IngestionQueue::Submit(IngestRecord record) {
  auto state = std::make_shared<std::promise<Result<uint64_t>>>();
  std::future<Result<uint64_t>> future = state->get_future();
  const IngestAdmission admission =
      SubmitAsync(std::move(record), [state](Status status, uint64_t seq) {
        if (status.ok()) {
          state->set_value(seq);
        } else {
          state->set_value(std::move(status));
        }
      });
  switch (admission) {
    case IngestAdmission::kAccepted:
      return future.get();
    case IngestAdmission::kQueueFull:
      return Status::FailedPrecondition("ingest queue full");
    case IngestAdmission::kShuttingDown:
      return Status::FailedPrecondition("ingestion shutting down");
  }
  return Status::Internal("unhandled admission verdict");
}

void IngestionQueue::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_) return;
  const uint64_t target = accepted_count_;
  ++flush_waiters_;
  cv_.notify_one();
  flush_cv_.wait(lock, [&] {
    return (processed_count_ >= target && !has_unpublished_) || stopped_;
  });
  --flush_waiters_;
}

Status IngestionQueue::ReloadBase(const std::string& path) {
  std::future<Status> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || shutdown_) {
      return Status::FailedPrecondition("ingestion not running");
    }
    Control control;
    control.kind = ControlKind::kReload;
    control.path = path;
    done = control.done.get_future();
    controls_.push_back(std::move(control));
    cv_.notify_one();
  }
  return done.get();
}

Status IngestionQueue::Checkpoint() {
  std::future<Status> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || shutdown_) {
      return Status::FailedPrecondition("ingestion not running");
    }
    Control control;
    control.kind = ControlKind::kCheckpoint;
    done = control.done.get_future();
    controls_.push_back(std::move(control));
    cv_.notify_one();
  }
  return done.get();
}

void IngestionQueue::Shutdown() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    cv_.notify_all();
    if (!started_) {
      stopped_ = true;
      flush_cv_.notify_all();
      return;
    }
    to_join.swap(thread_);  // claims the join; repeat calls see empty
  }
  if (to_join.joinable()) to_join.join();
}

Status IngestionQueue::ValidateRecord(const IngestRecord& record) const {
  // Mirrors (and tightens) the precondition checks of the fold-ins in
  // embedding/online_update.cc. Journaled-implies-applies is the replay
  // invariant, so anything the fold-in would refuse — or worse, walk
  // out of bounds on — must be refused here, before the journal append.
  const embedding::EmbeddingStore* store = builder_->staging_store();
  const uint32_t num_users = store->CountOf(graph::NodeType::kUser);
  const uint32_t num_events = store->CountOf(graph::NodeType::kEvent);
  switch (record.kind) {
    case IngestKind::kAttendance:
      if (record.user >= num_users) {
        return Status::OutOfRange("attendance user " +
                                  std::to_string(record.user) +
                                  " outside the user matrix");
      }
      if (record.event >= num_events) {
        return Status::OutOfRange("attendance event " +
                                  std::to_string(record.event) +
                                  " outside the event matrix");
      }
      return Status::Ok();
    case IngestKind::kNewEvent: {
      if (record.event >= num_events) {
        return Status::OutOfRange("new event " +
                                  std::to_string(record.event) +
                                  " outside the event matrix");
      }
      if (record.signals.region != ebsn::kInvalidId &&
          record.signals.region >=
              store->CountOf(graph::NodeType::kLocation)) {
        return Status::OutOfRange(
            "new event region outside the location matrix");
      }
      const uint32_t vocab = store->CountOf(graph::NodeType::kWord);
      for (const auto& [word, weight] : record.signals.words) {
        if (word >= vocab) {
          return Status::OutOfRange("new event word outside the vocabulary");
        }
        if (!std::isfinite(weight) || weight <= 0.0f) {
          return Status::InvalidArgument(
              "new event word weights must be finite and positive");
        }
      }
      // FoldInColdEvent links the event to its three time slots without
      // a bounds check of its own — a store trained without time nodes
      // must be refused here, not corrupt memory there.
      const uint32_t num_times = store->CountOf(graph::NodeType::kTime);
      for (const ebsn::TimeSlotId slot :
           ebsn::TimeSlotsFor(record.signals.start_time)) {
        if (slot >= num_times) {
          return Status::OutOfRange(
              "new event time slot outside the time matrix (store has " +
              std::to_string(num_times) + " time nodes)");
        }
      }
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown ingest record kind");
}

Status IngestionQueue::ApplyRecord(const IngestRecord& record) {
  switch (record.kind) {
    case IngestKind::kAttendance:
      if (record.new_user) {
        embedding::NewUserSignals signals;
        signals.attended_events.push_back(record.event);
        return builder_->FoldInUser(record.user, signals, options_.foldin);
      }
      return builder_->RecordAttendance(record.user, record.event,
                                        options_.nudge);
    case IngestKind::kNewEvent:
      return builder_->FoldInEvent(record.event, record.signals,
                                   options_.foldin);
  }
  return Status::InvalidArgument("unknown ingest record kind");
}

void IngestionQueue::IngestLoop() {
  // Lowering our own priority never needs privilege; failure (e.g. an
  // exotic sandbox) only costs scheduling fairness, so ignore it.
  (void)::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)),
                      kIngestThreadNice);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const bool actionable = !pending_.empty() || !controls_.empty() ||
                            shutdown_ ||
                            (flush_waiters_ > 0 && unpublished_ > 0);
    if (!actionable) {
      if (unpublished_ > 0) {
        // Sleep at most until the interval-driven publish is due;
        // MaybePublish below fires it on timeout.
        cv_.wait_until(lock,
                       oldest_unpublished_ + options_.publish_interval);
      } else {
        cv_.wait(lock);
      }
    }

    // Control operations run between batches, lock released.
    while (!controls_.empty()) {
      Control control = std::move(controls_.front());
      controls_.pop_front();
      lock.unlock();
      Status status;
      switch (control.kind) {
        case ControlKind::kReload:
          status = DoReload(control.path);
          break;
        case ControlKind::kCheckpoint:
          status = DoCheckpoint();
          break;
      }
      control.done.set_value(std::move(status));
      lock.lock();
    }

    std::vector<Pending> batch;
    const size_t take = std::min(kMaxApplyBatch, pending_.size());
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    // A flush or shutdown forces the publish once the queue is drained,
    // so waiters never sit out a full publish interval.
    const bool drained = pending_.empty() && controls_.empty();
    const bool force_publish =
        drained && (flush_waiters_ > 0 || shutdown_);
    lock.unlock();

    if (options_.pre_batch_hook_for_testing) {
      options_.pre_batch_hook_for_testing();
    }
    if (!batch.empty()) {
      m_queue_depth_->Sub(static_cast<int64_t>(batch.size()));
      ProcessBatch(&batch);
    }
    MaybePublish(force_publish);

    lock.lock();
    if (shutdown_ && pending_.empty() && controls_.empty()) break;
  }

  // Shutdown can land between a batch's force_publish decision and the
  // break check; publish any tail it left behind.
  lock.unlock();
  MaybePublish(/*force=*/true);
  lock.lock();
  stopped_ = true;
  flush_cv_.notify_all();
}

void IngestionQueue::ProcessBatch(std::vector<Pending>* batch) {
  struct Valid {
    Pending* pending;
    uint64_t seq;
  };
  std::vector<Valid> valid;
  valid.reserve(batch->size());
  std::vector<IngestRecord> to_journal;
  to_journal.reserve(batch->size());
  size_t processed = 0;
  bool any_applied = false;

  // 1. Validate before journaling: a journaled record is a record that
  //    applies, so replay can never diverge from the live timeline.
  for (Pending& pending : *batch) {
    if (Status s = ValidateRecord(pending.record); !s.ok()) {
      m_rejected_->Increment();
      ++processed;
      if (pending.ack) pending.ack(std::move(s), 0);
      continue;
    }
    const uint64_t seq = ++seq_counter_;
    pending.record.seq = seq;
    valid.push_back({&pending, seq});
    to_journal.push_back(pending.record);
  }

  // 2. Group commit: one fdatasync covers the batch. On failure nothing
  //    is durable, so every record is refused — never acked-then-lost.
  bool journaled = false;
  if (!to_journal.empty()) {
    const auto append_start = std::chrono::steady_clock::now();
    const size_t bytes_before = journal_->bytes();
    const Status journal_status = journal_->Append(to_journal);
    m_journal_append_us_->Record(
        ElapsedUs(append_start, std::chrono::steady_clock::now()));
    if (journal_status.ok()) {
      journaled = true;
      m_journal_appends_->Increment();
      m_journal_bytes_->Increment(journal_->bytes() - bytes_before);
    } else {
      GEMREC_LOG(Warning) << "ingest journal append failed, refusing "
                          << valid.size()
                          << " records: " << journal_status.ToString();
      for (Valid& v : valid) {
        m_rejected_->Increment();
        ++processed;
        if (v.pending->ack) v.pending->ack(journal_status, 0);
      }
    }
  }

  // 3. Apply + acknowledge in journal order.
  if (journaled) {
    for (Valid& v : valid) {
      const auto apply_start = std::chrono::steady_clock::now();
      Status apply_status = ApplyRecord(v.pending->record);
      const auto apply_end = std::chrono::steady_clock::now();
      m_apply_us_->Record(ElapsedUs(apply_start, apply_end));
      if (apply_status.ok()) {
        m_applied_->Increment();
        live_records_.push_back(v.pending->record);
        if (unpublished_ == 0) oldest_unpublished_ = apply_end;
        ++unpublished_;
        m_unpublished_->Add(1);
        ++applied_since_checkpoint_;
        any_applied = true;
      } else {
        // Journaled but refused by the fold-in — replay skips it the
        // same deterministic way, so the timelines still agree.
        m_rejected_->Increment();
        GEMREC_LOG(Warning) << "ingest apply failed for seq " << v.seq
                            << ": " << apply_status.ToString();
      }
      ++processed;
      m_ack_us_->Record(ElapsedUs(v.pending->accepted_at, apply_end));
      if (v.pending->ack) {
        const uint64_t acked_seq = apply_status.ok() ? v.seq : 0;
        v.pending->ack(std::move(apply_status), acked_seq);
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    processed_count_ += processed;
    if (any_applied) has_unpublished_ = true;
  }
  flush_cv_.notify_all();
}

void IngestionQueue::MaybePublish(bool force) {
  if (unpublished_ == 0) return;
  if (!force) {
    const auto now = std::chrono::steady_clock::now();
    const bool due =
        unpublished_ >= options_.publish_threshold ||
        now >= oldest_unpublished_ + options_.publish_interval;
    if (!due) return;
  }
  DoPublish();

  if (options_.checkpoint_every > 0 && !options_.checkpoint_base.empty() &&
      applied_since_checkpoint_ >= options_.checkpoint_every) {
    if (Status s = DoCheckpoint(); !s.ok()) {
      GEMREC_LOG(Warning) << "ingest checkpoint failed (journal keeps "
                          << "growing, durability unaffected): "
                          << s.ToString();
    }
  }
}

void IngestionQueue::DoPublish() {
  const auto start = std::chrono::steady_clock::now();
  if (unpublished_ > 0) {
    m_publish_lag_us_->Record(ElapsedUs(oldest_unpublished_, start));
  }
  service_->Publish(builder_->BuildNext());
  m_publish_build_us_->Record(
      ElapsedUs(start, std::chrono::steady_clock::now()));
  m_publishes_->Increment();
  m_unpublished_->Sub(static_cast<int64_t>(unpublished_));
  unpublished_ = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    has_unpublished_ = false;
  }
  flush_cv_.notify_all();
}

Status IngestionQueue::DoCheckpoint() {
  if (options_.checkpoint_base.empty()) {
    return Status::FailedPrecondition(
        "checkpointing disabled (no checkpoint base configured)");
  }
  // Every journaled record is applied (or deterministically skipped) by
  // the time the loop reaches a checkpoint, so the staging store + pool
  // cover the whole journal and seq_counter_ is a valid watermark.
  const uint64_t watermark = seq_counter_;
  GEMREC_RETURN_IF_ERROR(SaveIngestCheckpoint(options_.checkpoint_base,
                                              *builder_->staging_store(),
                                              builder_->event_pool(),
                                              watermark));
  // The checkpoint is durable; its records in the journal are now
  // redundant. A crash before this Reset replays them onto the
  // checkpoint, where seq <= watermark filters every one out.
  GEMREC_RETURN_IF_ERROR(journal_->Reset());
  checkpoint_seq_ = watermark;
  applied_since_checkpoint_ = 0;
  live_records_.clear();
  PruneIngestCheckpoints(options_.checkpoint_base, watermark);
  m_checkpoints_->Increment();
  return Status::Ok();
}

Status IngestionQueue::DoReload(const std::string& path) {
  auto run = [&]() -> Status {
    auto store = embedding::LoadEmbeddingStore(path);
    if (!store.ok()) return store.status();
    GEMREC_RETURN_IF_ERROR(ValidateStoreShape(*store, *builder_));
    builder_->ResetStagingStore(std::move(store).value());
    // Re-apply the journal tail: acked records since the last
    // checkpoint survive the base swap (older ones are assumed baked
    // into the retrained artifact). Records the new store cannot hold
    // (e.g. a shrunken vocabulary) are skipped with a warning — their
    // effect on the previous base lives on in already-built snapshots.
    size_t reapplied = 0;
    for (const IngestRecord& record : live_records_) {
      Status s = ValidateRecord(record);
      if (s.ok()) s = ApplyRecord(record);
      if (!s.ok()) {
        GEMREC_LOG(Warning) << "reload skips journaled record seq "
                            << record.seq << ": " << s.ToString();
        continue;
      }
      ++reapplied;
    }
    GEMREC_LOG(Info) << "ingest reload: base " << path << " + " << reapplied
                     << " re-applied journal records";
    if (!options_.checkpoint_base.empty()) {
      // Fold the new base into a checkpoint so recovery after this
      // point starts from it, not from the stale pre-reload base.
      if (Status s = DoCheckpoint(); !s.ok()) {
        GEMREC_LOG(Warning) << "post-reload checkpoint failed: "
                            << s.ToString();
      }
    }
    DoPublish();
    return Status::Ok();
  };
  const Status status = run();
  if (!status.ok()) service_->RecordReloadFailure();
  return status;
}

}  // namespace gemrec::serving
