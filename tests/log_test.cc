// Tests for the durable log substrate: record serialization, topic
// ordering, cursors, close semantics, and redo-log integrity checking.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "common/metrics.h"
#include "common/random.h"
#include "log/durable_log.h"
#include "log/log_record.h"

namespace dynamast::log {
namespace {

LogRecord MakeUpdateRecord() {
  LogRecord record;
  record.type = LogRecord::Type::kUpdate;
  record.origin = 2;
  record.tvv = VersionVector(std::vector<uint64_t>{1, 0, 5});
  record.writes.push_back(WriteEntry{RecordKey{1, 42}, "value-a", false});
  record.writes.push_back(WriteEntry{RecordKey{3, 7}, "value-b", true});
  return record;
}

TEST(LogRecordTest, RoundTripUpdate) {
  const LogRecord record = MakeUpdateRecord();
  LogRecord parsed;
  ASSERT_TRUE(LogRecord::Deserialize(record.Serialize(), &parsed).ok());
  EXPECT_EQ(parsed, record);
}

TEST(LogRecordTest, RoundTripReleaseMarker) {
  LogRecord record;
  record.type = LogRecord::Type::kRelease;
  record.origin = 1;
  record.tvv = VersionVector(std::vector<uint64_t>{0, 3});
  record.partitions = {5, 9, 11};
  record.transfer_peer = 0;
  LogRecord parsed;
  ASSERT_TRUE(LogRecord::Deserialize(record.Serialize(), &parsed).ok());
  EXPECT_EQ(parsed, record);
}

TEST(LogRecordTest, RoundTripGrantMarker) {
  LogRecord record;
  record.type = LogRecord::Type::kGrant;
  record.origin = 0;
  record.tvv = VersionVector(std::vector<uint64_t>{7, 3});
  record.partitions = {1};
  record.transfer_peer = 1;
  LogRecord parsed;
  ASSERT_TRUE(LogRecord::Deserialize(record.Serialize(), &parsed).ok());
  EXPECT_EQ(parsed, record);
}

TEST(LogRecordTest, SerializedSizeMatches) {
  const LogRecord record = MakeUpdateRecord();
  EXPECT_EQ(record.Serialize().size(), record.SerializedSize());
}

TEST(LogRecordTest, RejectsEveryTruncation) {
  const std::string encoded = MakeUpdateRecord().Serialize();
  LogRecord parsed;
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(LogRecord::Deserialize(encoded.substr(0, cut), &parsed).ok())
        << "cut at " << cut;
  }
}

TEST(LogRecordTest, RejectsTrailingGarbage) {
  LogRecord parsed;
  EXPECT_TRUE(LogRecord::Deserialize(MakeUpdateRecord().Serialize() + "zz",
                                     &parsed)
                  .IsCorruption());
}

TEST(LogRecordTest, RejectsBadType) {
  std::string encoded = MakeUpdateRecord().Serialize();
  encoded[0] = 9;
  LogRecord parsed;
  EXPECT_TRUE(LogRecord::Deserialize(encoded, &parsed).IsCorruption());
}

TEST(LogRecordTest, RandomRoundTripProperty) {
  Random rng(77);
  for (int i = 0; i < 100; ++i) {
    LogRecord record;
    record.type = static_cast<LogRecord::Type>(rng.Uniform(3));
    record.origin = static_cast<SiteId>(rng.Uniform(8));
    std::vector<uint64_t> vv(1 + rng.Uniform(8));
    for (auto& x : vv) x = rng.Uniform(1000);
    record.tvv = VersionVector(vv);
    const size_t writes = rng.Uniform(5);
    for (size_t w = 0; w < writes; ++w) {
      std::string value(rng.Uniform(64), 'q');
      record.writes.push_back(WriteEntry{
          RecordKey{static_cast<TableId>(rng.Uniform(4)), rng.Next()},
          std::move(value), rng.Bernoulli(0.5)});
    }
    const size_t parts = rng.Uniform(4);
    for (size_t p = 0; p < parts; ++p) record.partitions.push_back(rng.Next());
    record.transfer_peer = static_cast<SiteId>(rng.Uniform(8));
    LogRecord parsed;
    ASSERT_TRUE(LogRecord::Deserialize(record.Serialize(), &parsed).ok());
    EXPECT_EQ(parsed, record);
  }
}

// ---- DurableLog -----------------------------------------------------------

TEST(DurableLogTest, AppendAssignsDenseOffsets) {
  DurableLog log;
  EXPECT_EQ(log.Append("a"), 0u);
  EXPECT_EQ(log.Append("b"), 1u);
  EXPECT_EQ(log.Size(), 2u);
}

TEST(DurableLogTest, TryReadSemantics) {
  DurableLog log;
  log.Append("a");
  std::string out;
  ASSERT_TRUE(log.TryRead(0, &out).ok());
  EXPECT_EQ(out, "a");
  EXPECT_TRUE(log.TryRead(1, &out).IsNotFound());
}

TEST(DurableLogTest, BlockingReadWokenByAppend) {
  DurableLog log;
  std::string out;
  std::thread appender([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.Append("late");
  });
  Status s = log.Read(0, &out,
                      std::chrono::steady_clock::now() +
                          std::chrono::seconds(5));
  appender.join();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(out, "late");
}

TEST(DurableLogTest, BlockingReadTimesOut) {
  DurableLog log;
  std::string out;
  EXPECT_TRUE(log.Read(0, &out,
                       std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(30))
                  .IsTimedOut());
}

TEST(DurableLogTest, CloseUnblocksReaders) {
  DurableLog log;
  std::string out;
  std::thread closer([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.Close();
  });
  Status s = log.Read(0, &out,
                      std::chrono::steady_clock::now() +
                          std::chrono::seconds(5));
  closer.join();
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_TRUE(log.closed());
}

TEST(DurableLogTest, ReadsExistingEntriesAfterClose) {
  DurableLog log;
  log.Append("still-there");
  log.Close();
  std::string out;
  ASSERT_TRUE(log.Read(0, &out, std::chrono::steady_clock::now()).ok());
  EXPECT_EQ(out, "still-there");
}

TEST(LogCursorTest, IteratesInOrder) {
  DurableLog log;
  for (int i = 0; i < 5; ++i) log.Append(std::to_string(i));
  LogCursor cursor(&log);
  std::string out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cursor.TryNext(&out).ok());
    EXPECT_EQ(out, std::to_string(i));
  }
  EXPECT_TRUE(cursor.TryNext(&out).IsNotFound());
  EXPECT_EQ(cursor.offset(), 5u);
}

TEST(LogCursorTest, SeekSupportsReplay) {
  DurableLog log;
  log.Append("a");
  log.Append("b");
  LogCursor cursor(&log);
  std::string out;
  ASSERT_TRUE(cursor.TryNext(&out).ok());
  ASSERT_TRUE(cursor.TryNext(&out).ok());
  cursor.SeekTo(0);
  ASSERT_TRUE(cursor.TryNext(&out).ok());
  EXPECT_EQ(out, "a");
}

TEST(LogCursorTest, FailedNextDoesNotAdvance) {
  DurableLog log;
  LogCursor cursor(&log);
  std::string out;
  EXPECT_TRUE(cursor.TryNext(&out).IsNotFound());
  EXPECT_EQ(cursor.offset(), 0u);
}

TEST(LogManagerTest, OneTopicPerSite) {
  LogManager logs(3);
  EXPECT_EQ(logs.num_sites(), 3u);
  logs.TopicFor(0)->Append("x");
  EXPECT_EQ(logs.TopicFor(0)->Size(), 1u);
  EXPECT_EQ(logs.TopicFor(1)->Size(), 0u);
  logs.CloseAll();
  EXPECT_TRUE(logs.TopicFor(2)->closed());
}

TEST(DurableLogTest, ConcurrentAppendersTotalOrder) {
  DurableLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 250; ++i) {
        log.Append(std::to_string(t) + ":" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.Size(), 1000u);
  // Per-producer subsequences must appear in order.
  std::vector<int> last_seen(4, -1);
  std::string out;
  for (uint64_t off = 0; off < 1000; ++off) {
    ASSERT_TRUE(log.TryRead(off, &out).ok());
    const int producer = out[0] - '0';
    const int seq = std::stoi(out.substr(2));
    EXPECT_GT(seq, last_seen[producer]);
    last_seen[producer] = seq;
  }
}


// ---- Segments, truncation and the checkpoint ---------------------------

// A serialized update from `origin` carrying `seq` in a `num_sites` vector
// and one write of `value` to row `row`.
std::string UpdateRecord(SiteId origin, size_t num_sites, uint64_t seq,
                         uint64_t row, const std::string& value) {
  LogRecord record;
  record.origin = origin;
  record.tvv = VersionVector(num_sites);
  record.tvv[origin] = seq;
  record.writes.push_back(WriteEntry{RecordKey{0, row}, value, false});
  return record.Serialize();
}

TEST(DurableLogTest, OffsetsStayAbsoluteAcrossTruncation) {
  DurableLog log;
  const uint64_t n = 2 * kSegmentRecords + 5;
  for (uint64_t i = 0; i < n; ++i) EXPECT_EQ(log.Append(std::to_string(i)), i);
  const DurableLog::Retention left = log.TruncateBefore(kSegmentRecords + 3);
  // Only whole segments go: the segment holding the cut stays.
  EXPECT_EQ(left.base, kSegmentRecords);
  EXPECT_EQ(left.records, n - kSegmentRecords);
  std::string out;
  ASSERT_TRUE(log.TryRead(kSegmentRecords, &out).ok());
  EXPECT_EQ(out, std::to_string(kSegmentRecords));
  ASSERT_TRUE(log.TryRead(n - 1, &out).ok());
  EXPECT_EQ(out, std::to_string(n - 1));
  EXPECT_EQ(log.Append("next"), n);
  ASSERT_TRUE(log.TryRead(n, &out).ok());
  EXPECT_EQ(out, "next");
}

TEST(DurableLogTest, ReadsBelowBaseAreSnapshotTooOld) {
  DurableLog log;
  for (uint64_t i = 0; i < kSegmentRecords + 1; ++i) log.Append("x");
  log.TruncateBefore(kSegmentRecords);
  std::string out = "untouched";
  EXPECT_TRUE(log.TryRead(0, &out).IsSnapshotTooOld());
  EXPECT_TRUE(log.TryRead(kSegmentRecords - 1, &out).IsSnapshotTooOld());
  EXPECT_TRUE(log.Read(0, &out, std::chrono::steady_clock::now())
                  .IsSnapshotTooOld());
  EXPECT_EQ(out, "untouched");
  // Beyond the end is still NotFound, distinct from below the base.
  EXPECT_TRUE(log.TryRead(kSegmentRecords + 1, &out).IsNotFound());
}

TEST(DurableLogTest, TruncationKeepsPartialSegments) {
  DurableLog log;
  for (uint64_t i = 0; i < kSegmentRecords - 1; ++i) log.Append("x");
  // The only segment is partial: nothing can go, whatever the cut.
  EXPECT_EQ(log.TruncateBefore(kSegmentRecords).base, 0u);
  std::string out;
  EXPECT_TRUE(log.TryRead(0, &out).ok());
}

TEST(DurableLogTest, BlockedReaderAtTailSurvivesTruncation) {
  DurableLog log;
  for (uint64_t i = 0; i < kSegmentRecords; ++i) log.Append("x");
  const uint64_t tail = log.Size();
  std::string out;
  Status s;
  std::thread reader([&] {
    s = log.Read(tail, &out,
                 std::chrono::steady_clock::now() + std::chrono::seconds(5));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(log.TruncateBefore(tail).base, tail);
  EXPECT_EQ(log.Retained().records, 0u);
  log.Append("tail");
  reader.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out, "tail");
}

TEST(DurableLogTest, SizeAndTotalAppendsCountTruncatedRecords) {
  LogManager logs(2);
  const uint64_t n = 3 * kSegmentRecords;
  for (uint64_t i = 0; i < n; ++i) {
    logs.TopicFor(0)->Append(UpdateRecord(0, 2, i + 1, i % 7, "v"));
  }
  logs.TopicFor(1)->Append(UpdateRecord(1, 2, 1, 99, "w"));
  ASSERT_TRUE(
      logs.Checkpoint(VersionVector(std::vector<uint64_t>{n, 1})).ok());
  EXPECT_EQ(logs.TopicFor(0)->Retained().base, n);
  EXPECT_EQ(logs.TopicFor(0)->Size(), n);
  EXPECT_EQ(logs.TotalAppends(), n + 1);
}

TEST(DurableLogTest, LostAppendReportsBasePlusRetained) {
  LogManager logs(1);
  for (uint64_t i = 0; i < kSegmentRecords + 2; ++i) {
    logs.TopicFor(0)->Append(UpdateRecord(0, 1, i + 1, 0, "v"));
  }
  ASSERT_TRUE(logs.Checkpoint(VersionVector(std::vector<uint64_t>{
                                  kSegmentRecords + 2}))
                  .ok());
  const DurableLog::Retention left = logs.TopicFor(0)->Retained();
  ASSERT_EQ(left.base, kSegmentRecords);
  ASSERT_EQ(left.records, 2u);
  logs.ArmCrashAfterAppends(0);
  // The lost write gets the offset it would have had, not the retained
  // count, and leaves nothing behind.
  EXPECT_EQ(logs.TopicFor(0)->Append("lost"), kSegmentRecords + 2);
  EXPECT_EQ(logs.TopicFor(0)->Size(), kSegmentRecords + 2);
}

TEST(LogCheckpointTest, LongRunRetainsAtMostTwoSegmentsAboveTheCut) {
  LogManager logs(2);
  metrics::Registry registry;
  logs.RegisterMetrics(&registry);
  const std::string value(100, 'v');
  uint64_t seq[2] = {0, 0};
  uint64_t retained_max = 0;
  // Seven segments through topic 0, a trickle through topic 1, with a
  // checkpoint every half segment a little behind the head (subscribers
  // lag the appenders).
  for (uint64_t i = 1; i <= 7 * kSegmentRecords; ++i) {
    logs.TopicFor(0)->Append(UpdateRecord(0, 2, ++seq[0], i % 500, value));
    if (i % 64 == 0) {
      logs.TopicFor(1)->Append(UpdateRecord(1, 2, ++seq[1], 1000 + i, value));
    }
    if (i % (kSegmentRecords / 2) == 0) {
      const VersionVector target(
          std::vector<uint64_t>{seq[0] - 100, seq[1]});
      ASSERT_TRUE(logs.Checkpoint(target).ok());
      EXPECT_EQ(logs.CheckpointCut().svv, target);
      for (uint32_t t = 0; t < 2; ++t) {
        const DurableLog::Retention r = logs.TopicFor(t)->Retained();
        const uint64_t cut = logs.CheckpointCut().offsets[t];
        EXPECT_LE(r.base, cut);
        EXPECT_LT(cut - r.base, kSegmentRecords) << "topic " << t;
        EXPECT_LE(r.records, 2 * kSegmentRecords) << "topic " << t;
        retained_max = std::max(retained_max, r.records);
      }
    }
  }
  EXPECT_GT(logs.TopicFor(0)->Retained().base, 5 * kSegmentRecords);
  EXPECT_LT(retained_max, 2 * kSegmentRecords);
  // The gauges track what the topics actually hold.
  EXPECT_EQ(
      registry.GetGauge("log_retained_records", {{"topic", "0"}})->Value(),
      static_cast<double>(logs.TopicFor(0)->Retained().records));
  EXPECT_EQ(registry.GetCounter("log_checkpoint_folded_total")->Value(),
            logs.CheckpointCut().svv.Total());
  EXPECT_GT(registry.GetHistogram("log_checkpoint_us")->recorder().count(),
            0u);

  // Recovery sees the checkpoint (one row per key: 500 hot rows plus the
  // topic-1 rows) and then the suffix, and ends at the head of every topic.
  uint64_t rows = 0;
  uint64_t suffix = 0;
  LogCut cut(2);
  ASSERT_TRUE(logs.RecoverInto(
                      [&](const RecordKey&, const CheckpointRow& row) {
                        ++rows;
                        EXPECT_EQ(row.value, value);
                      },
                      [&](LogRecord&) { ++suffix; }, &cut)
                  .ok());
  EXPECT_EQ(rows, 500u + logs.CheckpointCut().svv[1]);
  EXPECT_EQ(suffix, 100u);
  EXPECT_EQ(cut.svv, VersionVector(std::vector<uint64_t>{seq[0], seq[1]}));
}

TEST(LogCheckpointTest, FoldStopsAtMissingDependency) {
  // Topic 1's record depends on topic 0's second record, which the target
  // excludes: the fold must stop short of it and stay consistent.
  LogManager logs(2);
  logs.TopicFor(0)->Append(UpdateRecord(0, 2, 1, 1, "a"));
  logs.TopicFor(0)->Append(UpdateRecord(0, 2, 2, 2, "b"));
  LogRecord dependent;
  dependent.origin = 1;
  dependent.tvv = VersionVector(std::vector<uint64_t>{2, 1});
  logs.TopicFor(1)->Append(dependent.Serialize());
  ASSERT_TRUE(
      logs.Checkpoint(VersionVector(std::vector<uint64_t>{1, 1})).ok());
  EXPECT_EQ(logs.CheckpointCut().svv,
            VersionVector(std::vector<uint64_t>{1, 0}));
  EXPECT_EQ(logs.CheckpointCut().offsets, (std::vector<uint64_t>{1, 0}));
}

TEST(LogCheckpointTest, OwnerTransformMatchesReplayOnEveryInitialOwner) {
  // Release 0->1, then release 1->2, then a grant at 2: composed as a
  // function, then resolved per initial owner.
  LogCut cut(3);
  LogRecord release;
  release.type = LogRecord::Type::kRelease;
  release.origin = 0;
  release.transfer_peer = 1;
  release.partitions = {7};
  cut.ApplyMarker(release);
  for (SiteId initial : {0u, 1u, 2u}) {
    std::unordered_map<PartitionId, SiteId> masters{{7, initial}};
    cut.ResolveMasters(&masters);
    EXPECT_EQ(masters[7], initial == 0 ? 1u : initial);
  }
  // A release of a partition with no (or an unknown) initial owner
  // leaves it as it was.
  std::unordered_map<PartitionId, SiteId> none;
  cut.ResolveMasters(&none);
  EXPECT_TRUE(none.empty());
  std::unordered_map<PartitionId, SiteId> foreign{{7, 9}};
  cut.ResolveMasters(&foreign);
  EXPECT_EQ(foreign[7], 9u);

  release.origin = 1;
  release.transfer_peer = 2;
  cut.ApplyMarker(release);
  std::unordered_map<PartitionId, SiteId> from0{{7, 0}};
  cut.ResolveMasters(&from0);
  EXPECT_EQ(from0[7], 2u);

  LogRecord grant;
  grant.type = LogRecord::Type::kGrant;
  grant.origin = 2;
  grant.partitions = {7};
  cut.ApplyMarker(grant);
  cut.ResolveMasters(&none);
  EXPECT_EQ(none[7], 2u);
}

}  // namespace
}  // namespace dynamast::log
