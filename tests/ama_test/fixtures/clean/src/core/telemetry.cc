#include "core/telemetry.h"

namespace dynamast::core {

void Telemetry::Hit() { hits.fetch_add(1, std::memory_order_relaxed); }

uint64_t Telemetry::Total() const {
  return hits.load(std::memory_order_relaxed);
}

}  // namespace dynamast::core
