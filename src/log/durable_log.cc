#include "log/durable_log.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/latency_recorder.h"

namespace dynamast::log {

namespace {
// Bytes per block a segment packs its records into (a larger record gets a
// block of its own).
constexpr size_t kSegmentBlockBytes = 64 * 1024;
}  // namespace

uint64_t DurableLog::Append(std::string_view serialized) {
  metrics::Histogram* latency =
      append_latency_.load(std::memory_order_acquire);
  Stopwatch watch;
  uint64_t offset;
  bool filled = false;
  Retention retained;
  {
    MutexLock lock(mu_);
    if (crash_countdown_ != nullptr &&
        crash_countdown_->fetch_sub(1, std::memory_order_acq_rel) <= 0) {
      // Crash injection armed and exhausted: the write is lost. Report
      // the offset it would have had; nothing is delivered or notified.
      return end_;
    }
    // Appends are ordering decisions (which commit reaches the topic
    // first): record/replay serialize them through the per-topic stream.
    DYNAMAST_SCHED_OP(kLogAppend, sched_uid_);
    if (segments_.empty() ||
        segments_.back().records.size() == kSegmentRecords) {
      segments_.emplace_back();
      segments_.back().records.reserve(kSegmentRecords);
    }
    Segment& segment = segments_.back();
    const size_t size = serialized.size();
    if (segment.block_capacity - segment.block_used < size) {
      segment.block_capacity = std::max(kSegmentBlockBytes, size);
      segment.blocks.push_back(
          std::make_unique_for_overwrite<char[]>(segment.block_capacity));
      segment.block_used = 0;
    }
    char* dst = segment.blocks.back().get() + segment.block_used;
    std::memcpy(dst, serialized.data(), size);
    segment.block_used += size;
    segment.records.emplace_back(dst, size);
    segment.bytes += size;
    retained_bytes_ += size;
    offset = end_++;
    filled = segment.records.size() == kSegmentRecords;
    if (filled && on_segment_full_) retained = RetainedLocked();
    cv_.notify_all();
  }
  if (filled && on_segment_full_) on_segment_full_(retained);
  if (latency != nullptr) latency->Observe(watch.ElapsedMicros());
  return offset;
}

uint64_t DurableLog::Size() const {
  MutexLock lock(mu_);
  return end_;
}

DurableLog::Retention DurableLog::Retained() const {
  MutexLock lock(mu_);
  return RetainedLocked();
}

DurableLog::Retention DurableLog::RetainedLocked() const {
  return Retention{base_, end_ - base_, retained_bytes_};
}

std::string_view DurableLog::EntryLocked(uint64_t offset) const {
  const uint64_t index = offset - base_;
  return segments_[index / kSegmentRecords].records[index % kSegmentRecords];
}

Status DurableLog::Read(uint64_t offset, std::string* out,
                        std::chrono::steady_clock::time_point deadline) const {
  MutexLock lock(mu_);
  while (offset >= end_) {
    if (closed_) return Status::Unavailable("log closed");
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout &&
        offset >= end_) {
      return Status::TimedOut("log read deadline");
    }
  }
  if (offset < base_) return Status::SnapshotTooOld("offset below log base");
  // A delivered record is an applier wake-up: record it in the topic's
  // decision stream beside the appends it depends on.
  DYNAMAST_SCHED_OP(kLogRead, sched_uid_);
  out->assign(EntryLocked(offset));
  return Status::OK();
}

Status DurableLog::TryRead(uint64_t offset, std::string* out) const {
  MutexLock lock(mu_);
  if (offset >= end_) return Status::NotFound("offset beyond end");
  if (offset < base_) return Status::SnapshotTooOld("offset below log base");
  DYNAMAST_SCHED_OP(kLogRead, sched_uid_);
  out->assign(EntryLocked(offset));
  return Status::OK();
}

DurableLog::Retention DurableLog::TruncateBefore(uint64_t offset) {
  std::deque<Segment> dropped;
  Retention retained;
  {
    MutexLock lock(mu_);
    while (!segments_.empty() && base_ + kSegmentRecords <= offset &&
           segments_.front().records.size() == kSegmentRecords) {
      retained_bytes_ -= segments_.front().bytes;
      dropped.push_back(std::move(segments_.front()));
      segments_.pop_front();
      base_ += kSegmentRecords;
    }
    retained = RetainedLocked();
  }
  return retained;  // `dropped` is freed here, outside the topic lock
}

void DurableLog::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool DurableLog::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

Status LogCursor::Next(std::string* out,
                       std::chrono::steady_clock::time_point deadline) {
  Status s = log_->Read(offset_, out, deadline);
  if (s.ok()) ++offset_;
  return s;
}

Status LogCursor::TryNext(std::string* out) {
  Status s = log_->TryRead(offset_, out);
  if (s.ok()) ++offset_;
  return s;
}

LogManager::LogManager(size_t num_sites) : cut_(num_sites) {
  topics_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) {
    topics_.push_back(std::make_unique<DurableLog>());
    topics_.back()->on_segment_full_ =
        [this, topic = static_cast<uint32_t>(i)](
            const DurableLog::Retention& retained) {
          OnSegmentFull(topic, retained);
        };
  }
}

void LogManager::RegisterMetrics(metrics::Registry* registry) {
  for (size_t i = 0; i < topics_.size(); ++i) {
    const std::string topic = std::to_string(i);
    topics_[i]->SetAppendLatency(
        registry->GetHistogram("log_append_us", {{"site", topic}}));
    retained_records_.push_back(
        registry->GetGauge("log_retained_records", {{"topic", topic}}));
    retained_bytes_.push_back(
        registry->GetGauge("log_retained_bytes", {{"topic", topic}}));
  }
  checkpoint_folded_ = registry->GetCounter("log_checkpoint_folded_total");
  checkpoint_us_ = registry->GetHistogram("log_checkpoint_us");
}

void LogManager::CloseAll() {
  for (auto& topic : topics_) topic->Close();
  {
    std::lock_guard<std::mutex> guard(wake_mu_);
    wake_closed_ = true;
  }
  wake_cv_.notify_all();
}

uint64_t LogManager::TotalAppends() const {
  uint64_t total = 0;
  for (const auto& topic : topics_) total += topic->Size();
  return total;
}

void LogManager::ArmCrashAfterAppends(int64_t appends) {
  auto countdown = std::make_shared<std::atomic<int64_t>>(appends);
  for (auto& topic : topics_) topic->SetCrashCountdown(countdown);
}

void LogManager::ExportRetention(uint32_t topic,
                                 const DurableLog::Retention& retained) {
  if (topic >= retained_records_.size()) return;
  retained_records_[topic]->Set(static_cast<double>(retained.records));
  retained_bytes_[topic]->Set(static_cast<double>(retained.bytes));
}

void LogManager::OnSegmentFull(uint32_t topic,
                               const DurableLog::Retention& retained) {
  ExportRetention(topic, retained);
  {
    std::lock_guard<std::mutex> guard(wake_mu_);
    segment_filled_ = true;
  }
  wake_cv_.notify_one();
}

bool LogManager::WaitForFullSegment() {
  std::unique_lock<std::mutex> guard(wake_mu_);
  wake_cv_.wait(guard, [this] { return segment_filled_ || wake_closed_; });
  if (wake_closed_) return false;
  segment_filled_ = false;
  return true;
}

Status LogManager::Checkpoint(const VersionVector& target) {
  Stopwatch watch;
  uint64_t folded = 0;
  {
    MutexLock lock(checkpoint_mu_);
    // The fold keeps only the latest value per key: Eq. 1 order puts every
    // overwrite of a key after the write it replaces.
    auto& rows = rows_;
    Status s = FoldLogs(
        *this, &target, &cut_,
        [&rows](LogRecord& record) {
          const uint64_t seq = record.tvv[record.origin];
          for (WriteEntry& w : record.writes) {
            rows[w.key] =
                CheckpointRow{record.origin, seq, std::move(w.value)};
          }
        },
        &folded);
    if (!s.ok()) return s;
    for (uint32_t t = 0; t < topics_.size(); ++t) {
      ExportRetention(t, topics_[t]->TruncateBefore(cut_.offsets[t]));
    }
  }
  if (checkpoint_folded_ != nullptr) checkpoint_folded_->Increment(folded);
  if (checkpoint_us_ != nullptr) checkpoint_us_->Observe(watch.ElapsedMicros());
  return Status::OK();
}

LogCut LogManager::CheckpointCut() const {
  MutexLock lock(checkpoint_mu_);
  return cut_;
}

Status LogManager::RecoverInto(
    const std::function<void(const RecordKey&, const CheckpointRow&)>&
        install_row,
    const std::function<void(LogRecord&)>& apply, LogCut* cut) const {
  MutexLock lock(checkpoint_mu_);
  for (const auto& [key, row] : rows_) install_row(key, row);
  *cut = cut_;
  return FoldLogs(*this, nullptr, cut, apply);
}

}  // namespace dynamast::log
