#ifndef DYNAMAST_STORAGE_RECORD_H_
#define DYNAMAST_STORAGE_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"

namespace dynamast::storage {

/// A single committed version of a record. Versions are stamped with the
/// (origin site, per-origin commit sequence number) of the transaction that
/// created them — exactly the information a snapshot (a version vector)
/// needs for the visibility test: a version is visible to begin vector `b`
/// iff seq <= b[origin].
///
/// This is sound because (a) a site installs versions from each origin in
/// commit order (the replication manager's FIFO), and (b) the update
/// application rule (Eq. 1) guarantees that when b[origin] >= seq, every
/// update the writing transaction depended on has also been installed.
struct RecordVersion {
  SiteId origin = 0;
  uint64_t seq = 0;
  std::string value;
};

/// The (origin, seq) stamp of a version a read observed, reported to the
/// caller for history recording (tools/si_checker attributes every read to
/// the commit that installed the version). (0, 0) is the loader-installed
/// base version.
struct VersionStamp {
  SiteId origin = 0;
  uint64_t seq = 0;
};

/// Outcome of one version install, reported up through Table and
/// StorageEngine so the site can feed the storage metrics
/// (storage_version_chain_len, storage_pruned_versions_total) without a
/// second pass over the chain.
struct InstallStats {
  size_t chain_len = 0;  // retained versions after the install
  bool pruned = false;   // an old version was evicted by this install
};

/// VersionedRecord is one row's multi-version chain (Section V-A1: the
/// database stores multiple versions of every record — four by default).
/// The chain is kept in site-local install order, which for a single record
/// equals the global write order (writes to a record are totally ordered by
/// single mastership + write locks).
///
/// It is a plain value with no lock of its own: the Table shard that owns
/// it guards it (reads hold the shard shared, installs hold it exclusive).
/// The versions sit in one contiguous array used as a ring; its capacity
/// grows 1 -> 2 -> 4 ... as versions arrive and never exceeds
/// `max_versions`, so a row that is only ever loaded holds one slot.
class VersionedRecord {
 public:
  /// `max_versions` is clamped to [1, 65535]: a record always retains at
  /// least its newest version.
  explicit VersionedRecord(size_t max_versions);

  // Records live in place in their shard-map node and are never moved.
  VersionedRecord(const VersionedRecord&) = delete;
  VersionedRecord& operator=(const VersionedRecord&) = delete;

  /// Appends a new version (newest end), pruning the oldest retained
  /// version if the chain is at `max_versions`. `stats` (when non-null)
  /// receives the post-install chain length and whether a prune happened.
  void Install(SiteId origin, uint64_t seq, std::string value,
               InstallStats* stats = nullptr);

  /// Reads the newest version visible to `snapshot`. Returns:
  ///  * OK and the value when a visible version exists;
  ///  * NotFound when the record was created entirely after the snapshot
  ///    (nothing pruned, nothing visible);
  ///  * SnapshotTooOld when versions the snapshot could see were pruned.
  /// On OK, `observed` (when non-null) receives the stamp of the version
  /// returned.
  Status ReadAtSnapshot(const VersionVector& snapshot, std::string* out,
                        VersionStamp* observed = nullptr) const;

  /// Reads the newest version unconditionally (loader / debugging).
  Status ReadLatest(std::string* out) const;

  /// Retained versions (not the array's capacity).
  size_t NumVersions() const { return size_; }
  /// Slots allocated for versions; at most `max_versions`.
  size_t Capacity() const { return capacity_; }
  /// Whether any version was ever pruned (what SnapshotTooOld needs).
  bool HasPruned() const { return pruned_; }

 private:
  // The i-th oldest retained version, i in [0, size_).
  const RecordVersion& At(uint32_t i) const { return versions_[Slot(i)]; }
  uint32_t Slot(uint32_t i) const {
    const uint32_t j = head_ + i;
    return j >= capacity_ ? j - capacity_ : j;
  }
  void Grow();

  std::unique_ptr<RecordVersion[]> versions_;
  uint16_t max_versions_;
  uint16_t capacity_ = 0;
  uint16_t head_ = 0;  // slot of the oldest retained version
  uint16_t size_ = 0;
  bool pruned_ = false;
};

// Per-row footprint budget: the shard map's node holds this record inline,
// so node = next pointer + key + record = 40 B (a 48 B malloc chunk). With
// the one-slot version array (64 B chunk) and a 120 B YCSB value (144 B
// chunk) a loaded row costs ~265 B per site, down from ~910 B when the
// record was a separately allocated object with its own mutex and a
// std::deque. Growing this struct past 24 B moves the node to the next
// malloc size class for every row in every table.
static_assert(sizeof(VersionedRecord) <= 24,
              "VersionedRecord is stored inline in every shard-map node");

}  // namespace dynamast::storage

#endif  // DYNAMAST_STORAGE_RECORD_H_
