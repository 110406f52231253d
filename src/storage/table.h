#ifndef DYNAMAST_STORAGE_TABLE_H_
#define DYNAMAST_STORAGE_TABLE_H_

#include <array>
#include <functional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/debug_mutex.h"
#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"
#include "storage/record.h"

namespace dynamast::storage {

/// A row-oriented in-memory table indexed by primary key (Section V-A1:
/// "records belonging to each relation in a row-oriented in-memory table
/// using the primary key of each record as an index").
///
/// The hash index is sharded; each shard's shared_mutex guards both the
/// shard's index and its rows' version chains. Reads hold the shard shared
/// across the lookup, the version walk and the value copy; an install holds
/// it exclusive across the insert-or-find and the version append.
class Table {
 public:
  Table(TableId id, size_t max_versions_per_record)
      : id_(id), max_versions_(max_versions_per_record) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }

  /// Installs a new version for `row`, creating the record if absent.
  /// `stats` (when non-null) receives the install outcome for metrics.
  void Install(uint64_t row, SiteId origin, uint64_t seq,
               std::string_view value, InstallStats* stats = nullptr);

  /// Snapshot read; see VersionedRecord::ReadAtSnapshot for semantics.
  /// NotFound if the row does not exist at all.
  Status Read(uint64_t row, const VersionVector& snapshot, std::string* out,
              VersionStamp* observed = nullptr) const;

  /// Latest-version read (loader / recovery verification).
  Status ReadLatest(uint64_t row, std::string* out) const;

  bool Contains(uint64_t row) const;
  size_t NumRows() const;

  /// Invokes `fn` for every row id currently in the table. Holds each
  /// shard's lock in shared mode while iterating that shard; `fn` must not
  /// call back into this table. Used by data shipping (LEAP) to enumerate
  /// a partition's rows.
  void ForEachRowId(const std::function<void(uint64_t)>& fn) const;

 private:
  static constexpr size_t kNumShards = 64;
  struct Shard {
    // Shards never nest: every operation touches exactly one shard at a
    // time (ForEachRowId iterates shard by shard).
    mutable DebugSharedMutex mu{"storage.table_shard"};
    // Map nodes are reference-stable, so each record lives in place in its
    // node; the lock guards the index and every chain in it.
    std::unordered_map<uint64_t, VersionedRecord> rows DYNAMAST_GUARDED_BY(mu);
  };
  Shard& ShardFor(uint64_t row) { return shards_[ShardIndex(row)]; }
  const Shard& ShardFor(uint64_t row) const { return shards_[ShardIndex(row)]; }
  static size_t ShardIndex(uint64_t row) {
    uint64_t x = row * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(x >> 58);  // top 6 bits -> 64 shards
  }

  TableId id_;
  size_t max_versions_;
  std::array<Shard, kNumShards> shards_;
};

}  // namespace dynamast::storage

#endif  // DYNAMAST_STORAGE_TABLE_H_
