#ifndef DYNAMAST_LOG_CHECKPOINT_H_
#define DYNAMAST_LOG_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/key.h"
#include "common/status.h"
#include "common/version_vector.h"
#include "log/log_record.h"

namespace dynamast::log {

class LogManager;

/// Mastership of one partition after a folded log prefix, kept as a
/// function of the partition's initial owner. The loader installs the
/// initial placement without logging it, so the log-side checkpoint folds
/// release/grant markers without knowing it: each marker composes onto
/// this function, and Resolve() applies it once a recovering site supplies
/// its initial map. The result is exactly what replaying the markers on
/// top of that map gives.
class OwnerTransform {
 public:
  explicit OwnerTransform(size_t num_sites);

  /// A grant marker from `origin`: the partition is origin's, whoever had it.
  void ApplyGrant(SiteId origin);
  /// A release marker from `origin` naming `peer`: if origin owned the
  /// partition, the peer does now (see LogCut::ApplyMarker).
  void ApplyRelease(SiteId origin, SiteId peer);

  /// Owner after the prefix when the initial owner was `initial`
  /// (kInvalidSite: none). Returns kInvalidSite if the prefix leaves an
  /// absent or out-of-range initial owner unchanged.
  SiteId Resolve(SiteId initial) const;

 private:
  // owner_if_[s] is the owner when the initial owner was s < num_sites;
  // the last slot covers every other initial owner (none, or an id out of
  // range) and holds kInvalidSite while the prefix leaves it unchanged.
  std::vector<SiteId> owner_if_;
};

/// A consistent cut of a LogManager's topics: every record at or below
/// `svv` has been folded, none above it.
struct LogCut {
  explicit LogCut(size_t num_sites)
      : svv(num_sites), offsets(num_sites, 0) {}

  /// Per-origin sequence number folded so far.
  VersionVector svv;
  /// Per-topic offset of the first record not yet folded.
  std::vector<uint64_t> offsets;
  /// Mastership effect of the folded release/grant markers, for every
  /// partition a marker named.
  std::unordered_map<PartitionId, OwnerTransform> owners;

  /// Folds one release/grant marker into `owners` (updates are ignored).
  void ApplyMarker(const LogRecord& record);

  /// Applies `owners` on top of an initial mastership map.
  void ResolveMasters(std::unordered_map<PartitionId, SiteId>* masters) const;
};

/// The latest value of one key in a checkpoint, with its version stamp.
struct CheckpointRow {
  SiteId origin = 0;
  uint64_t seq = 0;
  std::string value;
};

/// Update application rule (Eq. 1): `record` is the next record of its
/// origin after `svv`, and every cross-origin dependency is in `svv`.
bool Eq1Applicable(const LogRecord& record, const VersionVector& svv);

/// The one replay loop, shared by the log-side checkpoint and site
/// recovery. Folds retained records into `cut` in an order that respects
/// Eq. 1: it sweeps the topics round-robin and, per topic, folds records
/// until the next one is missing, not yet applicable, or (when `limit` is
/// non-null) beyond `limit` for its origin. It stops when a sweep folds
/// nothing, so the cut it reaches is always consistent. `apply` sees each
/// folded record before `cut` advances past it and may consume its writes.
/// `folded`, if non-null, is incremented per record. Returns the first
/// read or decode error: SnapshotTooOld means `cut` lies below a topic's
/// retained base.
Status FoldLogs(const LogManager& logs, const VersionVector* limit,
                LogCut* cut, const std::function<void(LogRecord&)>& apply,
                uint64_t* folded = nullptr);

}  // namespace dynamast::log

#endif  // DYNAMAST_LOG_CHECKPOINT_H_
