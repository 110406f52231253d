#ifndef DYNAMAST_COMMON_SCHEDULER_H_
#define DYNAMAST_COMMON_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sched_trace.h"

namespace dynamast::sched {

/// Two-mode schedule-exploration engine (see DESIGN.md, "Exact replay &
/// partial-order reduction").
///
/// The concurrent subsystems mark their synchronization operations —
/// every DebugMutex acquisition/release, simulated-network delivery,
/// admission-gate slot grant, durable-log append and read — with the
/// DYNAMAST_SCHED_OP / DYNAMAST_SCHED_OP_SCOPE macros below. In default
/// builds those expand to nothing; with -DDYNAMAST_SCHED_FUZZ=ON every
/// operation consults this engine, which runs in one of five modes:
///
///   kOff     pass-through (armed builds, engine idle).
///   kFuzz    the PR 2 PCT-lite fuzzer: priority-randomized yields/sleeps
///            per seed epoch (probabilistic replay only).
///   kRecord  every operation is appended to a Trace: the serialized
///            decision stream of the run. Acquire-like operations record
///            *after* completing, release-like ones *before* starting, so
///            the recorded total order is always feasible.
///   kReplay  the engine enforces the recorded per-object operation order:
///            a thread's operation proceeds only when it is at the head of
///            its object's recorded queue. Per-object FIFO enforcement
///            reproduces every lock-handoff, message-delivery and
///            slot-grant decision of the recorded run, which makes the
///            history (and its hash) bit-identical.
///   kExplore serial controlled scheduler: at most one thread runs between
///            operations; the engine picks which blocked thread's pending
///            operation is granted next. The DporExplorer (common/dpor)
///            drives it with forced prefixes + sleep sets to enumerate
///            non-equivalent interleavings only.
///
/// Threads are identified across runs by *name* (BindThreadName / the
/// names given to spawned workers), objects by (lock label, constructing
/// thread name, per-(label,thread) construction ordinal) — both stable
/// across executions, neither involving pointers, so traces replay across
/// processes.
///
/// The engine is always compiled into dynamast_common so its unit tests
/// run in every configuration; DYNAMAST_SCHED_FUZZ only decides whether
/// the hook sites call into it.

enum class Mode : uint8_t {
  kOff = 0,
  kFuzz = 1,
  kRecord = 2,
  kReplay = 3,
  kExplore = 4,
};

Mode CurrentMode();

// ---------------------------------------------------------------------------
// Legacy PCT-lite fuzzing interface (PR 2), preserved verbatim.

/// Arms the fuzzer with `seed`. Threads re-derive their priority and
/// decision stream lazily at their next schedule point. Thread-safe.
void Enable(uint64_t seed);

/// Disarms the engine entirely (any mode back to kOff).
void Disable();

bool IsEnabled();
uint64_t CurrentSeed();

/// One legacy synchronization point: perturbs under kFuzz (and under
/// kRecord when the fuzz layer is on), otherwise cheap.
void Point(const char* site_name);

/// Schedule points hit / perturbations injected since the last Enable.
uint64_t PointCount();
uint64_t PerturbationCount();

/// RAII enable-for-scope, the shape tests use:
///   for (uint64_t seed : seeds) { sched::ScopedSeed fuzz(seed); ... }
class ScopedSeed {
 public:
  explicit ScopedSeed(uint64_t seed) { Enable(seed); }
  ~ScopedSeed() { Disable(); }
  ScopedSeed(const ScopedSeed&) = delete;
  ScopedSeed& operator=(const ScopedSeed&) = delete;
};

// ---------------------------------------------------------------------------
// Identity.

/// Names the calling thread for trace purposes ("client/3",
/// "site/1/applier/0"...). Sticky for the thread's lifetime; re-binding
/// overwrites. Replay matches live threads to trace threads by name, so
/// every thread a deterministic test spawns should be named.
void BindThreadName(const std::string& name);
std::string CurrentThreadName();

/// RAII name binding that additionally tells the explore-mode scheduler
/// when the thread is done (so it stops waiting for it to quiesce). Use as
/// the first statement of spawned thread bodies.
class ThreadGuard {
 public:
  explicit ThreadGuard(const std::string& name);
  ~ThreadGuard();
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

/// Registers one synchronization object under `label` and returns its
/// engine uid. Called from the constructors of the traced wrappers
/// (DebugMutex, SimulatedNetwork, AdmissionGate, DurableLog). The cross-
/// run identity key is (label, current thread name, per-(label,thread)
/// construction counter).
uint32_t RegisterObject(const char* label);

/// Clears the object registry, identity counters and condvar generations.
/// Call before constructing each system-under-test so construction
/// ordinals restart from zero (record and replay runs must build their
/// object tables identically). Also binds the calling thread to "main" if
/// it is still unnamed.
void ResetIdentities();

// ---------------------------------------------------------------------------
// Hooks.

/// RAII hook around one synchronization operation. Acquire-like kinds
/// (lock, lock_shared) trace at destruction (post-completion); all other
/// kinds trace at construction (pre-operation). Construct it so its scope
/// spans the native operation:
///
///   { sched::OpScope op(OpKind::kMutexLock, sched_uid_); mu_.lock(); }
class OpScope {
 public:
  OpScope(OpKind kind, uint32_t object_uid);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  uint8_t armed_ = 0;  // 0 = fast-path skip; otherwise the Mode value
  OpKind kind_ = OpKind::kMarker;
  uint32_t object_ = 0;
};

/// Point-like hook for operations with no meaningful duration (message
/// delivery decisions, log appends): trace happens before returning.
inline void Op(OpKind kind, uint32_t object_uid) { OpScope op(kind, object_uid); }

/// Marks the calling thread as blocked on something outside the engine's
/// arbitration (typically a thread join). The explore-mode scheduler
/// excludes Blocked threads from its quiescence wait; replay ignores it.
class ScopedBlocked {
 public:
  ScopedBlocked();
  ~ScopedBlocked();
  ScopedBlocked(const ScopedBlocked&) = delete;
  ScopedBlocked& operator=(const ScopedBlocked&) = delete;

 private:
  bool armed_ = false;
};

// ---------------------------------------------------------------------------
// Condition-variable redirection.
//
// In the armed modes (record/replay/explore) condition-variable waits must
// not hand the mutex back through the native cv (the native wake-up race
// would be an untraced scheduling decision). DebugCondVar instead performs
// a *traced* unlock, parks on the engine until the cv's generation counter
// moves (or the deadline passes), then performs a *traced* re-lock. The
// predicate loop around every wait makes the extra wake-ups harmless, and
// the lock-handoff order — the actual scheduling decision — lands in the
// trace.

/// True when condvars should use the traced unlock/park/re-lock path.
bool CvRedirectArmed();

/// Current generation of the condvar identified by `cv` (any stable
/// address). Bumped by CvNotify.
uint64_t CvGeneration(const void* cv);

/// Wakes parked waiters of `cv` (both notify_one and notify_all map here:
/// with the traced re-lock arbitrating who proceeds, waking everyone is
/// semantically notify_all, which every predicate-looped wait tolerates).
void CvNotify(const void* cv);

/// Parks until CvGeneration(cv) != start_gen or `deadline` passes.
/// Returns false iff the deadline passed with no generation change.
bool CvPark(const void* cv, uint64_t start_gen,
            std::chrono::steady_clock::time_point deadline);

// ---------------------------------------------------------------------------
// Record / replay.

/// Starts recording the decision stream. `fuzz_layer` additionally runs
/// the PCT-lite perturbation under the same seed, so a fuzzed run can be
/// recorded and replayed exactly.
void StartRecord(uint64_t seed, bool fuzz_layer);

/// Stops recording and returns the trace (threads, objects, entries).
Trace StopRecord();

struct ReplayResult {
  bool clean = false;        ///< full stream consumed, no divergence
  size_t consumed = 0;       ///< trace entries matched
  size_t total = 0;          ///< trace entries overall
  size_t unmatched_ops = 0;  ///< live ops on objects unknown to the trace
  /// Recorded entries skipped because their thread deregistered without
  /// performing them. Whether a worker squeezes in one final no-op
  /// iteration before observing an untraced stop flag is wall-clock state,
  /// not decision-stream state, so the shutdown drain may legitimately
  /// shed a few trailing lock/unlock pairs; the history-hash comparison
  /// remains the authoritative equivalence check.
  size_t skipped_exited = 0;
  std::vector<std::string> divergences;
  std::string ToString() const;
};

/// Arms replay of `trace`: subsequent operations are gated to follow the
/// recorded per-object order. On divergence (an operation the trace does
/// not expect next, or a stalled wait) the engine disarms itself, lets the
/// run finish free-running, and reports via StopReplay().
void StartReplay(const Trace& trace);
ReplayResult StopReplay();

// ---------------------------------------------------------------------------
// Systematic exploration (driven by common/dpor).

struct ExploreOptions {
  /// Thread tokens to grant, in order, before free scheduling resumes.
  std::vector<uint32_t> forced;
  /// sleep_add[i] = tokens to place in the sleep set at step i (after the
  /// forced prefix replays the first i steps). Indexed by step.
  std::vector<std::vector<uint32_t>> sleep_add;
  /// Deterministic tie-break seed for free scheduling after the prefix.
  uint64_t seed = 0;
  /// Max context switches away from the running thread while it is still
  /// runnable (PCT-style bound); <0 = unbounded.
  int preemption_bound = -1;
  /// Safety valve on total granted operations.
  size_t max_steps = 1 << 20;
  /// Forget name->token assignments from previous explore sessions.
  bool fresh_session = false;
  /// Issue no grants until this many non-blocked threads have registered
  /// with the serial scheduler (ThreadGuard construction or first
  /// sync-point arrival; ScopedBlocked joiners don't count). Plugs the
  /// spawn window: threads announce themselves only once they start
  /// running, so without this gate the first grants race thread startup
  /// and the enabled sets reported to the explorer are
  /// under-approximated. The stall watchdog still fires as an escape
  /// hatch if the threads never arrive (counted in stall_grants).
  size_t await_threads = 0;
};

struct ExploreStep {
  TraceEntry entry;
  /// Tokens of all threads whose pending operation was runnable when this
  /// step was granted (the DPOR "enabled" set), sorted.
  std::vector<uint32_t> enabled;
  /// Tokens that were in the sleep set at this step.
  std::vector<uint32_t> sleeping;
};

struct ExploreRun {
  Trace trace;
  std::vector<ExploreStep> steps;
  size_t forced_consumed = 0;
  /// Forced prefix could not be followed (thread exited / never arrived).
  bool diverged = false;
  /// Grants issued by the stall watchdog (non-quiescent state): each one
  /// is a nondeterminism warning.
  size_t stall_grants = 0;
  /// Steps where every runnable thread was asleep and the scheduler had
  /// to wake one (sleep-set blocked state).
  size_t sleep_forced = 0;
  bool hit_step_limit = false;
};

void StartExplore(const ExploreOptions& options);
ExploreRun StopExplore();

/// Stable explore-session token for a thread name (assigned on first use,
/// persists across executions of one explore session so DPOR's forced
/// prefixes stay meaningful).
uint32_t ExploreTokenForName(const std::string& name);

}  // namespace dynamast::sched

/// Hook-site macros. They compile to nothing unless the build enables
/// DYNAMAST_SCHED_FUZZ, so hot paths carry no branch in default builds.
#if defined(DYNAMAST_SCHED_FUZZ) && DYNAMAST_SCHED_FUZZ
#define DYNAMAST_SCHED_FUZZ_ENABLED 1
#define DYNAMAST_SCHED_POINT(site_name) ::dynamast::sched::Point(site_name)
#define DYNAMAST_SCHED_OP(kind, uid) \
  ::dynamast::sched::Op(::dynamast::sched::OpKind::kind, (uid))
#define DYNAMAST_SCHED_OP_SCOPE(var, kind, uid) \
  ::dynamast::sched::OpScope var(::dynamast::sched::OpKind::kind, (uid))
#define DYNAMAST_SCHED_REGISTER(label) (::dynamast::sched::RegisterObject(label))
#else
#define DYNAMAST_SCHED_FUZZ_ENABLED 0
#define DYNAMAST_SCHED_POINT(site_name) ((void)0)
#define DYNAMAST_SCHED_OP(kind, uid) ((void)(uid))
#define DYNAMAST_SCHED_OP_SCOPE(var, kind, uid) ((void)(uid))
#define DYNAMAST_SCHED_REGISTER(label) ((void)(label), 0U)
#endif

#endif  // DYNAMAST_COMMON_SCHEDULER_H_
