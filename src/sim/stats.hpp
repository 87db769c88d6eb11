// Lightweight statistics containers used by every experiment harness.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
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

/// Index of one counter inside the CounterSet that interned it.
using CounterId = std::uint32_t;

/// Named counters, for protocol event accounting (invalidations issued,
/// retries, aborted writes, restarted reads, ...).  Names are interned:
/// a unit resolves each name to a CounterId once, at construction, and
/// every hot-path bump is a flat-array increment.  An id belongs to the
/// set that interned it (and to copies of that set).  A counter is
/// reported only once it has been incremented, even by 0: interning alone
/// adds nothing to all() or to_json.
class CounterSet {
 public:
  /// Returns `name`'s id, registering it on first use.  Idempotent.
  CounterId intern(std::string_view name);
  /// The id of an already interned `name`, if any.
  [[nodiscard]] std::optional<CounterId> find(std::string_view name) const;
  void inc(CounterId id, std::uint64_t by = 1) noexcept {
    auto& slot = slots_[id];
    slot.value += by;
    slot.live = true;
  }
  [[nodiscard]] std::uint64_t get(CounterId id) const noexcept {
    return slots_[id].value;
  }
  [[nodiscard]] std::uint64_t get(std::string_view name) const;
  [[nodiscard]] const std::string& name(CounterId id) const {
    return names_[id];
  }
  /// Calls fn(name, value) for every incremented counter, by name.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, id] : index_) {
      if (slots_[id].live) fn(name, slots_[id].value);
    }
  }
  /// Every incremented counter, sorted by name.
  [[nodiscard]] std::map<std::string, std::uint64_t> all() const;
  /// Adds every incremented counter of `other` into this set, matching
  /// counters by name (counters are additive, so merging is
  /// order-independent).
  void merge(const CounterSet& other);
  /// Zeroes every counter and withdraws it from reports; ids stay valid.
  void reset() noexcept;

 private:
  struct Slot {
    std::uint64_t value = 0;
    bool live = false;  ///< incremented since construction or reset()
  };
  std::vector<Slot> slots_;         ///< by id
  std::vector<std::string> names_;  ///< by id
  std::map<std::string, CounterId, std::less<>> index_;
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
