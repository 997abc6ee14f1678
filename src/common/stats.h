// Lightweight statistics registry.
//
// Every simulated component registers named counters/histograms in a
// StatSet at construction and bumps them through stable pointers during
// simulation (no map lookups on the hot path). The harness dumps a
// StatSet as aligned text or CSV after a run.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "common/check.h"

namespace glb {

/// Monotonic event counter. Each run owns its StatSet, so a plain
/// integer suffices.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Scalar sample aggregator: count / sum / min / max / mean plus
/// power-of-two bucket counts (bucket i holds samples in [2^i, 2^{i+1})).
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  void Record(std::uint64_t sample) {
    ++s_.count;
    s_.sum += sample;
    s_.min_raw = std::min(s_.min_raw, sample);
    s_.max_raw = std::max(s_.max_raw, sample);
    ++s_.buckets[static_cast<std::size_t>(BucketOf(sample))];
  }

  std::uint64_t count() const { return s_.count; }
  std::uint64_t sum() const { return s_.sum; }
  std::uint64_t min() const { return s_.count ? s_.min_raw : 0; }
  std::uint64_t max() const { return s_.count ? s_.max_raw : 0; }
  double mean() const {
    return s_.count ? static_cast<double>(s_.sum) / static_cast<double>(s_.count) : 0.0;
  }
  std::uint64_t bucket(int i) const {
    GLB_CHECK(i >= 0 && i < kBuckets) << "bucket index " << i;
    return s_.buckets[static_cast<std::size_t>(i)];
  }

  /// Approximate p-quantile (p in [0,1]) from the power-of-two buckets:
  /// linear rank interpolation inside the bucket that holds the target
  /// rank, clamped to [min, max]. Exact at the endpoints (p=0 returns
  /// min(), p=1 returns max()) and when all samples share one value;
  /// otherwise within one bucket width of the true sorted-order
  /// quantile. Returns 0 for an empty histogram.
  double PercentileApprox(double p) const;

  /// Folds `other`'s samples into this histogram (used by campaign
  /// benches aggregating per-run stats).
  void Merge(const Histogram& other);

  static int BucketOf(std::uint64_t sample) {
    if (sample == 0) return 0;
    int b = 63 - __builtin_clzll(sample);
    return std::min(b, kBuckets - 1);
  }

 private:
  // min_raw/max_raw hold the "empty" sentinels until the first sample.
  struct State {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min_raw = ~0ull;
    std::uint64_t max_raw = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  State s_;
};

/// Named registry. Stable addresses: objects live in deques and are never
/// moved after creation, so components may cache the returned pointers.
///
/// Ordering contract: every dump (Print, PrintCsv, ForEach*, and thus
/// the manifest "stats" block and the interval sampler's series) visits
/// entries in lexicographic name order — std::map iteration — NEVER in
/// registration order. Registration order varies with construction
/// paths and optimization levels, while name order is identical across
/// compilers and standard libraries, so two glb.run stats blocks from
/// different builds diff cleanly line-for-line. Pinned by
/// common_test.cc (StatSetOrdering).
class StatSet {
 public:
  /// Returns the counter named `name`, creating it on first use.
  Counter* GetCounter(std::string_view name);
  /// Returns the histogram named `name`, creating it on first use.
  Histogram* GetHistogram(std::string_view name);

  /// Value of a counter, or 0 if it was never created (convenient for
  /// reporting code that probes optional stats).
  std::uint64_t CounterValue(std::string_view name) const;
  /// Histogram lookup without creation; nullptr if absent.
  const Histogram* FindHistogram(std::string_view name) const;

  /// Sum of all counters whose name starts with `prefix`.
  std::uint64_t SumCountersWithPrefix(std::string_view prefix) const;

  /// Visits every counter / histogram in name order (used by the run
  /// manifest emitter; keeps the storage maps private).
  template <typename F>
  void ForEachCounter(F&& f) const {
    for (const auto& [name, c] : counters_) f(name, *c);
  }
  template <typename F>
  void ForEachHistogram(F&& f) const {
    for (const auto& [name, h] : histograms_) f(name, *h);
  }

  /// Human-readable dump, sorted by name.
  void Print(std::ostream& os) const;
  /// `name,value` CSV (counters) followed by histogram summary rows.
  void PrintCsv(std::ostream& os) const;

  void Reset();

 private:
  std::deque<Counter> counter_storage_;
  std::deque<Histogram> histogram_storage_;
  std::map<std::string, Counter*, std::less<>> counters_;
  std::map<std::string, Histogram*, std::less<>> histograms_;
};

}  // namespace glb
