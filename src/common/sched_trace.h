#ifndef DYNAMAST_COMMON_SCHED_TRACE_H_
#define DYNAMAST_COMMON_SCHED_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dynamast::sched {

/// The decision-stream trace of one recorded execution (see DESIGN.md,
/// "Exact replay & partial-order reduction").
///
/// Every synchronization operation the scheduler arbitrates — DebugMutex
/// acquire/release (exclusive and shared), simulated-network delivery,
/// admission-slot grant, durable-log append and delivered durable-log
/// read — is one TraceEntry: which
/// thread performed which kind of operation on which object, in the
/// serialized order the run resolved them. Acquire-like operations are
/// recorded *after* they complete and release-like operations *before*
/// they start, so the recorded order is always feasible: by the time an
/// acquire appears in the stream, the release that enabled it is already
/// earlier in the stream. Replay therefore never deadlocks enforcing it.

enum class OpKind : uint8_t {
  kMutexLock = 0,
  kMutexUnlock = 1,
  kMutexLockShared = 2,
  kMutexUnlockShared = 3,
  kNetDeliver = 4,
  kGateGrant = 5,
  kLogAppend = 6,
  kMarker = 7,
  kLogRead = 8,
};
inline constexpr uint8_t kNumOpKinds = 9;

const char* OpKindName(OpKind kind);

/// Acquire-like operations (lock, lock_shared) are recorded post-
/// completion and consumed post-completion in replay; everything else is
/// recorded and consumed pre-operation.
bool AcquireLike(OpKind kind);

/// Whether two operations on the *same* object are dependent (order
/// matters). Shared acquisitions commute with each other; everything else
/// on one object conflicts.
bool OpsConflict(OpKind a, OpKind b);

struct TraceEntry {
  uint32_t thread = 0;  ///< index into Trace::threads
  OpKind kind = OpKind::kMarker;
  uint32_t object = 0;  ///< index into Trace::objects
};

/// Stable cross-run identity of one synchronization object: the lock-class
/// label, the name of the thread that constructed it, and its ordinal
/// among that (label, thread) pair's constructions since the last identity
/// reset. Construction order per thread is deterministic, so the key
/// matches the "same" object across record and replay runs — even across
/// processes (no pointers).
struct TraceObject {
  std::string label;
  std::string birth_thread;
  uint32_t birth_index = 0;

  std::string Key() const;
  bool operator==(const TraceObject& o) const {
    return label == o.label && birth_thread == o.birth_thread &&
           birth_index == o.birth_index;
  }
};

struct Trace {
  uint64_t seed = 0;
  /// Free-form metadata (system, workload, client count, history hash...)
  /// so a trace file is self-describing: the replay harness reconstructs
  /// the scenario from it.
  std::map<std::string, std::string> meta;
  std::vector<std::string> threads;     ///< token -> thread name
  std::vector<TraceObject> objects;     ///< dense object table
  std::vector<TraceEntry> entries;

  bool empty() const { return entries.empty(); }

  std::string Serialize() const;
  static Status Parse(std::string_view text, Trace* out);
  Status DumpToFile(const std::string& path) const;
  static Status LoadFromFile(const std::string& path, Trace* out);
};

}  // namespace dynamast::sched

#endif  // DYNAMAST_COMMON_SCHED_TRACE_H_
