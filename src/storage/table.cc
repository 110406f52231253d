#include "storage/table.h"

namespace dynamast::storage {

void Table::Install(uint64_t row, SiteId origin, uint64_t seq,
                    std::string_view value, InstallStats* stats) {
  Shard& shard = ShardFor(row);
  WriterMutexLock write_lock(shard.mu);
  VersionedRecord& record =
      shard.rows.try_emplace(row, max_versions_).first->second;
  record.Install(origin, seq, value, stats);
}

Status Table::Read(uint64_t row, const VersionVector& snapshot,
                   std::string* out, VersionStamp* observed) const {
  const Shard& shard = ShardFor(row);
  ReaderMutexLock read_lock(shard.mu);
  auto it = shard.rows.find(row);
  if (it == shard.rows.end()) return Status::NotFound("no such row");
  return it->second.ReadAtSnapshot(snapshot, out, observed);
}

Status Table::ReadLatest(uint64_t row, std::string* out) const {
  const Shard& shard = ShardFor(row);
  ReaderMutexLock read_lock(shard.mu);
  auto it = shard.rows.find(row);
  if (it == shard.rows.end()) return Status::NotFound("no such row");
  return it->second.ReadLatest(out);
}

bool Table::Contains(uint64_t row) const {
  const Shard& shard = ShardFor(row);
  ReaderMutexLock read_lock(shard.mu);
  return shard.rows.count(row) != 0;
}

void Table::ForEachRowId(const std::function<void(uint64_t)>& fn) const {
  for (const Shard& shard : shards_) {
    ReaderMutexLock read_lock(shard.mu);
    for (const auto& [row, record] : shard.rows) fn(row);
  }
}

size_t Table::NumRows() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    ReaderMutexLock read_lock(shard.mu);
    total += shard.rows.size();
  }
  return total;
}

}  // namespace dynamast::storage
