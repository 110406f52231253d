#include "storage/record.h"

#include <algorithm>
#include <utility>

namespace dynamast::storage {

VersionedRecord::VersionedRecord(size_t max_versions)
    : max_versions_(static_cast<uint16_t>(
          std::clamp<size_t>(max_versions, 1, UINT16_MAX))) {}

void VersionedRecord::Grow() {
  const uint16_t capacity = static_cast<uint16_t>(std::min<uint32_t>(
      std::max<uint32_t>(1, 2u * capacity_), max_versions_));
  auto grown = std::make_unique<RecordVersion[]>(capacity);
  for (uint32_t i = 0; i < size_; ++i) {
    grown[i] = std::move(versions_[Slot(i)]);
  }
  versions_ = std::move(grown);
  capacity_ = capacity;
  head_ = 0;
}

void VersionedRecord::Install(SiteId origin, uint64_t seq, std::string value,
                              InstallStats* stats) {
  bool pruned = false;
  if (size_ == capacity_ && capacity_ < max_versions_) Grow();
  if (size_ < capacity_) {
    versions_[Slot(size_)] = RecordVersion{origin, seq, std::move(value)};
    ++size_;
  } else {
    // Full at max_versions_: the new version overwrites the oldest.
    versions_[head_] = RecordVersion{origin, seq, std::move(value)};
    head_ = static_cast<uint16_t>(Slot(1));
    pruned_ = pruned = true;
  }
  if (stats != nullptr) {
    stats->chain_len = size_;
    stats->pruned = pruned;
  }
}

Status VersionedRecord::ReadAtSnapshot(const VersionVector& snapshot,
                                       std::string* out,
                                       VersionStamp* observed) const {
  for (uint32_t i = size_; i-- > 0;) {
    const RecordVersion& v = At(i);
    const uint64_t visible_up_to =
        v.origin < snapshot.size() ? snapshot[v.origin] : 0;
    if (v.seq <= visible_up_to) {
      *out = v.value;
      if (observed != nullptr) *observed = VersionStamp{v.origin, v.seq};
      return Status::OK();
    }
  }
  if (pruned_) {
    return Status::SnapshotTooOld("all retained versions newer than snapshot");
  }
  return Status::NotFound("record created after snapshot");
}

Status VersionedRecord::ReadLatest(std::string* out) const {
  if (size_ == 0) return Status::NotFound("no versions");
  *out = At(size_ - 1).value;
  return Status::OK();
}

}  // namespace dynamast::storage
