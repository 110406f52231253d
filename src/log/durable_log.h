#ifndef DYNAMAST_LOG_DURABLE_LOG_H_
#define DYNAMAST_LOG_DURABLE_LOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/version_vector.h"
#include "log/checkpoint.h"

namespace dynamast::log {

/// Records per segment of a DurableLog. Retention is released in whole
/// segments, so a topic keeps at most one partial segment below its cut.
inline constexpr uint64_t kSegmentRecords = 4096;

/// DurableLog is an ordered, append-only topic — this repo's stand-in for
/// one Kafka partition (the paper creates one Kafka log per site; see
/// DESIGN.md). It provides exactly the two properties DynaMast relies on:
///
///  1. per-topic total order: records are delivered to every subscriber in
///     exactly the order they were appended (the replication manager's
///     per-origin FIFO requirement, Appendix A condition 3);
///  2. replayability: a recovering site rebuilds its state from the
///     LogManager's checkpoint plus the records retained above it
///     (Section V-C; Kafka's retention plus compaction).
///
/// Records live in fixed-size segments of kSegmentRecords. Offsets are
/// absolute and dense for the topic's whole life; TruncateBefore drops
/// whole segments below a checkpoint cut, after which reads below the
/// retained base return SnapshotTooOld.
///
/// Entries are stored as serialized byte strings; consumers deserialize via
/// LogRecord::Deserialize, so a corrupted entry is detected at read time.
class DurableLog {
 public:
  /// Retention at one instant: the first retained offset, and the count
  /// and payload bytes of the records from there to the end.
  struct Retention {
    uint64_t base = 0;
    uint64_t records = 0;
    uint64_t bytes = 0;
  };

  DurableLog() = default;

  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Appends a copy of a record and returns its offset (0-based, dense).
  DYNAMAST_BLOCKING uint64_t Append(std::string_view serialized)
      DYNAMAST_EXCLUDES(mu_);

  /// Number of records appended so far, truncated ones included (the
  /// offset the next append gets).
  uint64_t Size() const DYNAMAST_EXCLUDES(mu_);

  Retention Retained() const DYNAMAST_EXCLUDES(mu_);

  /// Reads the record at `offset`, blocking until it exists or `deadline`
  /// passes (TimedOut), or the log is closed (Unavailable) with no record
  /// at that offset. SnapshotTooOld if `offset` is below the retained base.
  DYNAMAST_BLOCKING Status Read(
      uint64_t offset, std::string* out,
      std::chrono::steady_clock::time_point deadline) const
      DYNAMAST_EXCLUDES(mu_);

  /// Non-blocking read; NotFound if the offset has not been written,
  /// SnapshotTooOld if it is below the retained base.
  Status TryRead(uint64_t offset, std::string* out) const
      DYNAMAST_EXCLUDES(mu_);

  /// Drops every whole segment that lies entirely below `offset` and
  /// returns the retention left. The segments leave under the topic lock
  /// and are freed after it is released, so appenders (which hold their
  /// site's state lock) never wait on the frees.
  Retention TruncateBefore(uint64_t offset) DYNAMAST_EXCLUDES(mu_);

  /// Wakes all blocked readers and makes subsequent blocking reads past the
  /// end return Unavailable. Used for orderly shutdown.
  void Close() DYNAMAST_EXCLUDES(mu_);

  bool closed() const DYNAMAST_EXCLUDES(mu_);

  /// Optional append-latency histogram (lock wait + append). Set once at
  /// cluster construction, before concurrent appends.
  void SetAppendLatency(metrics::Histogram* histogram) {
    append_latency_.store(histogram, std::memory_order_release);
  }

  /// Crash injection for recovery tests: after `countdown` reaches zero
  /// (shared across the topics of one LogManager), Append silently drops
  /// the record — modeling writes that never reached the durable log
  /// before the site crashed. Readers see nothing; the returned offset is
  /// a plausible lie, exactly like an acknowledged-but-lost write.
  void SetCrashCountdown(std::shared_ptr<std::atomic<int64_t>> countdown)
      DYNAMAST_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    crash_countdown_ = std::move(countdown);
  }

 private:
  friend class LogManager;

  // Up to kSegmentRecords records, packed into byte blocks that are never
  // reallocated. Truncation frees a segment's few blocks, not one heap
  // string per record, and the appender keeps (and frees) its own copy.
  struct Segment {
    std::vector<std::unique_ptr<char[]>> blocks;
    size_t block_used = 0;      // bytes used in blocks.back()
    size_t block_capacity = 0;  // size of blocks.back()
    std::vector<std::string_view> records;
    uint64_t bytes = 0;
  };

  Retention RetainedLocked() const DYNAMAST_REQUIRES(mu_);
  // The record at `offset`; requires base_ <= offset < end_.
  std::string_view EntryLocked(uint64_t offset) const DYNAMAST_REQUIRES(mu_);

  mutable DebugMutex mu_{"log.topic"};
  mutable DebugCondVar cv_;
  // segments_[i] holds offsets [base_ + i * kSegmentRecords, ...); only
  // the last segment is partial.
  std::deque<Segment> segments_ DYNAMAST_GUARDED_BY(mu_);
  uint64_t base_ DYNAMAST_GUARDED_BY(mu_) = 0;
  uint64_t end_ DYNAMAST_GUARDED_BY(mu_) = 0;
  uint64_t retained_bytes_ DYNAMAST_GUARDED_BY(mu_) = 0;
  bool closed_ DYNAMAST_GUARDED_BY(mu_) = false;
  std::atomic<metrics::Histogram*> append_latency_{nullptr};
  std::shared_ptr<std::atomic<int64_t>> crash_countdown_
      DYNAMAST_GUARDED_BY(mu_);
  // Called, outside the topic lock, by the append that fills a segment.
  // Installed by the owning LogManager before any append.
  std::function<void(const Retention&)> on_segment_full_;
  // Scheduler identity of this topic's append/read decision stream.
  uint32_t sched_uid_ = DYNAMAST_SCHED_REGISTER("log.append");
};

/// A consumer cursor over a DurableLog: tracks the next offset to read.
/// Each (applier, origin) pair owns one cursor, mirroring Kafka consumer
/// offsets.
class LogCursor {
 public:
  explicit LogCursor(const DurableLog* log) : log_(log) {}

  /// Blocking next-record read; advances on success.
  Status Next(std::string* out,
              std::chrono::steady_clock::time_point deadline);

  /// Non-blocking; NotFound when caught up.
  Status TryNext(std::string* out);

  uint64_t offset() const { return offset_; }
  void SeekTo(uint64_t offset) { offset_ = offset; }

 private:
  const DurableLog* log_;
  uint64_t offset_ = 0;
};

/// LogManager owns one topic per site, the layout the paper uses ("distinct
/// Kafka logs for updates from each site", Appendix A), plus the log-side
/// checkpoint that lets the topics forget their oldest segments.
///
/// The checkpoint is the fold (FoldLogs) of every record below a cut: the
/// latest value of each written key with its (origin, seq) stamp, the
/// mastership effect of the folded release/grant markers, and the cut's
/// per-topic offsets and svv. A recovering site installs it and replays
/// the retained suffix (RecoverInto), so the topics only keep records at
/// or above the cut. Lock order: site.state, then log.checkpoint, then
/// log.topic.
class LogManager {
 public:
  explicit LogManager(size_t num_sites);

  DurableLog* TopicFor(uint32_t site) { return topics_[site].get(); }
  const DurableLog* TopicFor(uint32_t site) const {
    return topics_[site].get();
  }
  size_t num_sites() const { return topics_.size(); }

  /// Resolves the log metrics: per-topic append latency and retention
  /// gauges, checkpoint fold counts and times. Call once, before any
  /// append.
  void RegisterMetrics(metrics::Registry* registry);

  /// Closes every topic and ends WaitForFullSegment.
  void CloseAll();

  /// Total records ever appended across all topics (a stable crash-point
  /// coordinate for recovery sweeps: "crash after the k-th durable
  /// append"). Truncation does not lower it.
  uint64_t TotalAppends() const;

  /// Arms crash injection: the next `appends` appends (across all topics)
  /// succeed, every later one is silently dropped. Passing a huge value
  /// effectively disarms.
  void ArmCrashAfterAppends(int64_t appends);

  /// Folds the records between the current cut and `target` into the
  /// checkpoint, then truncates every topic below the new cut. The fold
  /// stops early at a record that is missing or not yet applicable, so
  /// the cut it reaches is consistent even if `target` is not. `target`
  /// must be a cut every subscriber has passed: records below it are
  /// freed.
  Status Checkpoint(const VersionVector& target)
      DYNAMAST_EXCLUDES(checkpoint_mu_);

  /// The current checkpoint's cut.
  LogCut CheckpointCut() const DYNAMAST_EXCLUDES(checkpoint_mu_);

  /// Recovery: hands every checkpoint row to `install_row`, then folds the
  /// retained suffix through `apply` (see FoldLogs). On return `cut` is
  /// the recovered state: svv, topic offsets and mastership. Holds the
  /// checkpoint lock throughout, so a concurrent Checkpoint cannot
  /// truncate the suffix from under the replay.
  Status RecoverInto(
      const std::function<void(const RecordKey&, const CheckpointRow&)>&
          install_row,
      const std::function<void(LogRecord&)>& apply, LogCut* cut) const
      DYNAMAST_EXCLUDES(checkpoint_mu_);

  /// Blocks until an append has filled a segment since the previous call
  /// (true) or CloseAll ran (false). The log cleaner's wake-up: nothing
  /// else, so a run shorter than one segment never wakes it.
  bool WaitForFullSegment();

 private:
  void OnSegmentFull(uint32_t topic, const DurableLog::Retention& retained);
  void ExportRetention(uint32_t topic, const DurableLog::Retention& retained);

  std::vector<std::unique_ptr<DurableLog>> topics_;

  mutable DebugMutex checkpoint_mu_{"log.checkpoint"};
  LogCut cut_ DYNAMAST_GUARDED_BY(checkpoint_mu_);
  std::unordered_map<RecordKey, CheckpointRow, RecordKeyHash> rows_
      DYNAMAST_GUARDED_BY(checkpoint_mu_);

  // The cleaner's wake-up. A plain mutex like the timeline sampler's: it
  // is thread control, outside the schedule-exploration decision stream.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool segment_filled_ = false;
  bool wake_closed_ = false;

  // Metric handles, resolved by RegisterMetrics before any append and
  // read-only afterwards (null when no registry was given).
  std::vector<metrics::Gauge*> retained_records_;
  std::vector<metrics::Gauge*> retained_bytes_;
  metrics::Counter* checkpoint_folded_ = nullptr;
  metrics::Histogram* checkpoint_us_ = nullptr;
};

}  // namespace dynamast::log

#endif  // DYNAMAST_LOG_DURABLE_LOG_H_
