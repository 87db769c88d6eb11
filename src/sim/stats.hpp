// Lightweight statistics containers used by every experiment harness.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cfm::sim {

/// Running scalar summary: count / mean / min / max / variance (Welford).
class RunningStat {
 public:
  void add(double x) noexcept;
  void merge(const RunningStat& other) noexcept;
  void reset() noexcept { *this = RunningStat{}; }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width bucket histogram over [0, bucket_width * bucket_count);
/// values beyond the top land in an overflow bucket.
class Histogram {
 public:
  Histogram(double bucket_width, std::size_t bucket_count);

  void add(double x) noexcept;
  /// Adds `other`'s buckets into this histogram.  Throws
  /// std::invalid_argument unless the geometries (bucket width and bucket
  /// count) match — rebinning across shapes would silently distort the
  /// distribution.
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }
  [[nodiscard]] double bucket_width() const noexcept { return width_; }
  /// Smallest x such that at least `q` (0..1) of samples are <= x
  /// (bucket-upper-bound resolution).
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  double width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Fixed-geometry power-of-two histogram for telemetry sketches.  64
/// buckets cover the full uint64 range — bucket 0 holds zero, bucket i
/// holds [2^(i-1), 2^i) — so the footprint is a flat 64-slot array no
/// matter how long the run is.  The per-window percentile sketches of the
/// flight recorder use this instead of `Histogram`, whose fixed-width
/// geometry needs thousands of buckets per window to keep resolution.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void add(double x) noexcept;
  /// Buckets are additive and the geometry is fixed, so merge never fails.
  void merge(const Log2Histogram& other) noexcept;
  /// Removes `prev`'s samples from this histogram.  Only meaningful when
  /// `prev` is an earlier snapshot of the same cumulative histogram —
  /// telemetry uses this to turn cumulative sketches into window deltas.
  void subtract(const Log2Histogram& prev) noexcept;
  void reset() noexcept { *this = Log2Histogram{}; }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return i < kBuckets ? buckets_[i] : 0;
  }
  /// Largest value a sample in bucket `i` can have.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept;
  /// Smallest bucket upper bound covering at least `q` (0..1) of samples.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Named counters, for protocol event accounting (invalidations issued,
/// retries, aborted writes, restarted reads, ...).
class CounterSet {
 public:
  void inc(const std::string& name, std::uint64_t by = 1) { counters_[name] += by; }
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const noexcept {
    return counters_;
  }
  /// Adds every counter of `other` into this set (counters are additive,
  /// so merging is order-independent).
  void merge(const CounterSet& other);
  void reset() noexcept { counters_.clear(); }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Alignment for per-domain hot state.  A fixed 64 bytes (the line size
/// of every mainstream x86/ARM part) rather than
/// std::hardware_destructive_interference_size, whose value is flagged by
/// GCC as ABI-unstable across translation units under -Werror.
inline constexpr std::size_t kCacheLineBytes = 64;

/// One tick domain's statistics shard: a CounterSet plus named running
/// stats.  Each domain writes only its own shard during the cycle — the
/// hot path has no shared mutable state — and the engine merges shards
/// (ascending domain id, so RunningStat::merge rounding is deterministic)
/// after the run.  Cache-line aligned: adjacent shards never share a
/// line.
struct alignas(kCacheLineBytes) StatShard {
  CounterSet counters;
  std::map<std::string, RunningStat> running;

  [[nodiscard]] RunningStat& stat(const std::string& name) {
    return running[name];
  }
  void merge(const StatShard& other);
  void reset() noexcept {
    counters.reset();
    running.clear();
  }
};

}  // namespace cfm::sim
