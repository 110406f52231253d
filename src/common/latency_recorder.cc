#include "common/latency_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dynamast {

namespace {
// Geometric bucket growth factor: bucket i covers
// [kFirst * kGrowth^i, kFirst * kGrowth^(i+1)).
constexpr double kGrowth = 1.04;
constexpr double kFirstBoundMicros = 1.0;

// a + b, clamped at UINT64_MAX instead of wrapping (see the class
// comment: merged counts saturate).
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  return __builtin_add_overflow(a, b, &sum) ? UINT64_MAX : sum;
}
}  // namespace

LatencyRecorder::LatencyRecorder() : buckets_(kNumBuckets, 0) {}

size_t LatencyRecorder::BucketFor(uint64_t micros) {
  if (micros <= kFirstBoundMicros) return 0;
  const double b =
      std::log(static_cast<double>(micros) / kFirstBoundMicros) /
      std::log(kGrowth);
  const size_t bucket = static_cast<size_t>(b) + 1;
  return std::min(bucket, kNumBuckets - 1);
}

double LatencyRecorder::BucketLowerBound(size_t bucket) {
  if (bucket == 0) return 0;
  return kFirstBoundMicros * std::pow(kGrowth, static_cast<double>(bucket - 1));
}

void LatencyRecorder::Record(uint64_t micros) {
  RawMutexLock guard(mu_);
  buckets_[BucketFor(micros)]++;
  count_++;
  sum_ += static_cast<double>(micros);
  max_ = std::max(max_, micros);
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  if (this == &other) return;
  // Snapshot `other` under its own lock, then fold the copy into this
  // recorder; the two locks are never held together, so concurrent
  // cross-merges (a.Merge(b) racing b.Merge(a)) cannot deadlock. The old
  // two-lock scoped_lock was deadlock-safe only via std::lock's retry
  // algorithm — its "ordering by address" comment was wrong.
  std::vector<uint64_t> other_buckets;
  uint64_t other_count;
  double other_sum;
  uint64_t other_max;
  {
    RawMutexLock guard(other.mu_);
    other_buckets = other.buckets_;
    other_count = other.count_;
    other_sum = other.sum_;
    other_max = other.max_;
  }
  RawMutexLock guard(mu_);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i] = SaturatingAdd(buckets_[i], other_buckets[i]);
  }
  count_ = SaturatingAdd(count_, other_count);
  sum_ += other_sum;
  max_ = std::max(max_, other_max);
}

uint64_t LatencyRecorder::count() const {
  RawMutexLock guard(mu_);
  return count_;
}

double LatencyRecorder::MeanMicros() const {
  RawMutexLock guard(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyRecorder::PercentileMicros(double q) const {
  RawMutexLock guard(mu_);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen = SaturatingAdd(seen, buckets_[i]);
    if (static_cast<double>(seen) >= target) {
      // Midpoint of the bucket as the estimate, clamped so the last
      // (overflow) bucket reports the true observed maximum instead of its
      // geometric lower bound — otherwise tail percentiles that land in it
      // are understated by an unbounded factor.
      const double lo = BucketLowerBound(i);
      const double hi = std::min(BucketLowerBound(i + 1),
                                 static_cast<double>(max_));
      return i == kNumBuckets - 1 ? static_cast<double>(max_)
                                  : std::max((lo + hi) / 2.0, lo);
    }
  }
  return static_cast<double>(max_);
}

uint64_t LatencyRecorder::MaxMicros() const {
  RawMutexLock guard(mu_);
  return max_;
}

void LatencyRecorder::Reset() {
  RawMutexLock guard(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

std::string LatencyRecorder::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "avg=%.2fms p50=%.2fms p90=%.2fms p99=%.2fms p99.9=%.2fms "
                "max=%.2fms n=%llu",
                MeanMicros() / 1000.0, PercentileMicros(0.5) / 1000.0,
                PercentileMicros(0.9) / 1000.0, PercentileMicros(0.99) / 1000.0,
                PercentileMicros(0.999) / 1000.0,
                static_cast<double>(MaxMicros()) / 1000.0,
                static_cast<unsigned long long>(count()));
  return std::string(buf);
}

std::string LatencyRecorder::SnapshotJson() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "{\"count\":%llu,\"mean_us\":%.3f,\"p50_us\":%.3f,\"p90_us\":%.3f,"
      "\"p99_us\":%.3f,\"p999_us\":%.3f,\"max_us\":%llu}",
      static_cast<unsigned long long>(count()), MeanMicros(),
      PercentileMicros(0.5), PercentileMicros(0.9), PercentileMicros(0.99),
      PercentileMicros(0.999), static_cast<unsigned long long>(MaxMicros()));
  return std::string(buf);
}

}  // namespace dynamast
