#include "core/state.h"

#include "common/thread_annotations.h"

namespace dynamast::core {

void State::Start() { running_.store(true, std::memory_order_release); }

bool State::Running() const {
  return running_.load(std::memory_order_acquire);
}

bool State::Peek() const { return running_.load(std::memory_order_relaxed); }

void State::Publish(const char* banner) {
  banner_.store(banner, std::memory_order_release);
}

const char* State::Banner() const {
  DYNAMAST_EPOCH_PROTECTED();
  return banner_.load(std::memory_order_acquire);
}

}  // namespace dynamast::core
