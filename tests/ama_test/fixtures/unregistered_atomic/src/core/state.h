// Fixture for ama_test (unregistered_atomic): the clean State plus a
// scratch tally with no row in the DESIGN.md atomic-field registry.
// Its one edge is already in the baseline.
#ifndef FIXTURE_CORE_STATE_H_
#define FIXTURE_CORE_STATE_H_

#include <atomic>
#include <cstdint>

namespace dynamast::core {

/// State is the shared run state of one worker pool.
class State {
 public:
  /// Marks the pool running. The release store pairs with the acquire
  /// load in Running(), so a worker that sees `true` also sees every
  /// write made before Start().
  void Start();

  /// True once Start() has been observed.
  bool Running() const;

  /// Approximate liveness probe for stats. Relaxed on purpose: a stale
  /// read only skews a report, never control flow.
  bool Peek() const;

  /// Publishes a new banner. The pointee must outlive every reader that
  /// could still hold it.
  void Publish(const char* banner);

  /// The current banner, read inside an epoch-protected region so the
  /// pointee cannot be reclaimed under the reader.
  const char* Banner() const;

  /// Bumps the scratch tally.
  void Scratch();

 private:
  std::atomic<bool> running_{false};
  std::atomic<const char*> banner_{nullptr};
  std::atomic<uint64_t> scratch_{0};
};

}  // namespace dynamast::core

#endif  // FIXTURE_CORE_STATE_H_
