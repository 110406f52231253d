// Fixture for ama_test: a hit tally nothing synchronizes on (role
// stat-counter), so every operation on it is relaxed.
#ifndef FIXTURE_CORE_TELEMETRY_H_
#define FIXTURE_CORE_TELEMETRY_H_

#include <atomic>
#include <cstdint>

namespace dynamast::core {

struct Telemetry {
  // Counts one hit.
  void Hit();

  // Hits so far; a stale value only skews a report.
  uint64_t Total() const;

  std::atomic<uint64_t> hits{0};
};

}  // namespace dynamast::core

#endif  // FIXTURE_CORE_TELEMETRY_H_
