#include "storage/record.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/invariant_checker.h"

namespace dynamast::storage {

void RecordVersion::Assign(std::string_view bytes) {
  DYNAMAST_INVARIANT(bytes.size() <= UINT32_MAX,
                     "record value exceeds a version slot's 32-bit length");
  if (value == nullptr || size != bytes.size()) {
    value = bytes.empty() ? nullptr
                          : std::make_unique_for_overwrite<char[]>(bytes.size());
    size = static_cast<uint32_t>(bytes.size());
  }
  if (!bytes.empty()) std::memcpy(value.get(), bytes.data(), bytes.size());
}

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

void VersionedRecord::Install(SiteId origin, uint64_t seq,
                              std::string_view value,
                              InstallStats* stats) {
  bool pruned = false;
  if (size_ == capacity_ && capacity_ < max_versions_) Grow();
  RecordVersion* slot;
  if (size_ < capacity_) {
    slot = &versions_[Slot(size_)];
    ++size_;
  } else {
    // Full at max_versions_: the new version overwrites the oldest.
    slot = &versions_[head_];
    head_ = static_cast<uint16_t>(Slot(1));
    pruned_ = pruned = true;
  }
  slot->origin = origin;
  slot->seq = seq;
  slot->Assign(value);
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
      out->assign(v.Value());
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
  out->assign(At(size_ - 1).Value());
  return Status::OK();
}

}  // namespace dynamast::storage
