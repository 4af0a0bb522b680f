// Measurement utilities: log-bucketed latency histograms with percentile
// queries, and time-series recorders.
#ifndef MAGESIM_SIM_STATS_H_
#define MAGESIM_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace magesim {

// HDR-style histogram: 64 power-of-two buckets, each split into 16 linear
// sub-buckets (~6% relative error). Records int64 values >= 0.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kNumSlots = 64 * kSubBuckets;

  // Dense index of the sub-bucket `value` records into, in [0, kNumSlots).
  // Slot order is value order, so conditioning aggregates on a latency slot
  // (span tail bands) composes with Percentile on the same histogram.
  static int SlotFor(int64_t value);
  // Smallest value that maps to `slot` (inverse of SlotFor, saturating).
  static int64_t SlotLowerBound(int slot);

  void Record(int64_t value);
  void RecordN(int64_t value, uint64_t count);

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }
  int64_t sum() const { return sum_; }

  // p in [0, 100]; locates the sub-bucket containing the p-th percentile
  // sample and linearly interpolates within it (samples assumed evenly
  // spread), clamped to the observed [min, max]. p<=0 yields min, p>=100
  // yields max.
  int64_t Percentile(double p) const;

  void Merge(const Histogram& other);
  void Reset();

  std::string Summary() const;  // "n=.. mean=.. p50=.. p99=.. p99.9=.. max=.." (µs)

 private:
  static int BucketFor(int64_t value, int* sub);
  static int64_t BucketUpperBound(int bucket, int sub);
  static int64_t BucketLowerBound(int bucket, int sub);

  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  std::array<std::array<uint64_t, kSubBuckets>, 64> buckets_{};
};

// Fixed-width time-bucketed series (for throughput timelines, Fig. 11).
class TimeSeries {
 public:
  explicit TimeSeries(SimTime bucket_width = 100 * kMillisecond)
      : bucket_width_(bucket_width) {}

  void Add(SimTime t, double value);

  // Value accumulated in each bucket; bucket i covers
  // [i*width, (i+1)*width).
  const std::vector<double>& buckets() const { return buckets_; }
  SimTime bucket_width() const { return bucket_width_; }

  // Rate per second for bucket i.
  double RatePerSec(size_t i) const;

 private:
  SimTime bucket_width_;
  std::vector<double> buckets_;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_STATS_H_
