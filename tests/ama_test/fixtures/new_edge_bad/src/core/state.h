// Fixture for ama_test (new_edge_bad): the clean State plus two
// operations the baseline has never seen: Stop() stores running_ with
// the defaulted seq_cst order, and MarkAndTotal() bumps the telemetry
// tally through a member. Banner() is unchanged.
#ifndef FIXTURE_CORE_STATE_H_
#define FIXTURE_CORE_STATE_H_

#include <atomic>
#include <cstdint>

#include "core/telemetry.h"

namespace dynamast::core {

/// State is the shared run state of one worker pool.
class State {
 public:
  /// Marks the pool running. The release store pairs with the acquire
  /// load in Running(), so a worker that sees `true` also sees every
  /// write made before Start().
  void Start();

  /// Marks the pool stopped. Seeded fault: the store spells no order.
  void Stop();

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

  /// Counts one hit and returns the tally including it.
  uint64_t MarkAndTotal();

 private:
  std::atomic<bool> running_{false};
  std::atomic<const char*> banner_{nullptr};
  Telemetry telemetry_;
};

}  // namespace dynamast::core

#endif  // FIXTURE_CORE_STATE_H_
