// Fixture: the one atomic field left after ghost_ was removed. Its
// registry row in DESIGN.md declares a role outside the closed set.
#ifndef FIXTURE_CORE_COUNTERS_H_
#define FIXTURE_CORE_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace dynamast::core {

struct Counters {
  std::atomic<uint64_t> hits{0};
};

}  // namespace dynamast::core

#endif  // FIXTURE_CORE_COUNTERS_H_
