#include "sim/stats.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace cfm::sim {

void RunningStat::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStat::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double bucket_width, std::size_t bucket_count)
    : width_(bucket_width), buckets_(bucket_count, 0) {}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < 0) x = 0;
  const auto idx = static_cast<std::size_t>(x / width_);
  if (idx >= buckets_.size()) {
    ++overflow_;
  } else {
    ++buckets_[idx];
  }
}

void Histogram::merge(const Histogram& other) {
  if (width_ != other.width_ || buckets_.size() != other.buckets_.size()) {
    throw std::invalid_argument(
        "Histogram::merge: bucket geometry mismatch");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::quantile(double q) const noexcept {
  if (total_ == 0 || q <= 0.0) return 0.0;
  // "At least q of the samples" needs a strictly positive sample count:
  // rounding q * total down to zero would let leading empty buckets (seen
  // == 0) satisfy the target.
  auto target = static_cast<std::uint64_t>(
      std::ceil(std::min(q, 1.0) * static_cast<double>(total_)));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return width_ * static_cast<double>(i + 1);
  }
  return width_ * static_cast<double>(buckets_.size());  // in overflow
}

void Log2Histogram::add(double x) noexcept {
  ++total_;
  if (x < 0) x = 0;
  sum_ += x;
  // Saturate at the top bucket rather than overflowing the cast: 2^64-ish
  // latencies only appear when something upstream is already broken.
  const double clamped = std::min(x, 9.2e18);
  const auto v = static_cast<std::uint64_t>(clamped);
  std::size_t idx = 0;
  if (v != 0) idx = static_cast<std::size_t>(std::bit_width(v));
  if (idx >= kBuckets) idx = kBuckets - 1;
  ++buckets_[idx];
}

void Log2Histogram::merge(const Log2Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

void Log2Histogram::subtract(const Log2Histogram& prev) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] -= prev.buckets_[i];
  total_ -= prev.total_;
  sum_ -= prev.sum_;
}

std::uint64_t Log2Histogram::bucket_upper(std::size_t i) noexcept {
  if (i == 0) return 0;
  if (i >= kBuckets) i = kBuckets - 1;
  return (std::uint64_t{1} << i) - 1;
}

double Log2Histogram::quantile(double q) const noexcept {
  if (total_ == 0 || q <= 0.0) return 0.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(std::min(q, 1.0) * static_cast<double>(total_)));
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) return static_cast<double>(bucket_upper(i));
  }
  return static_cast<double>(bucket_upper(kBuckets - 1));
}

CounterId CounterSet::intern(std::string_view name) {
  if (const auto it = index_.find(name); it != index_.end()) {
    return it->second;
  }
  const auto id = static_cast<CounterId>(slots_.size());
  slots_.emplace_back();
  names_.emplace_back(name);
  index_.emplace(name, id);
  return id;
}

std::optional<CounterId> CounterSet::find(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t CounterSet::get(std::string_view name) const {
  const auto id = find(name);
  return id ? get(*id) : 0;
}

std::map<std::string, std::uint64_t> CounterSet::all() const {
  std::map<std::string, std::uint64_t> out;
  for_each([&](const std::string& name, std::uint64_t value) {
    out.emplace_hint(out.end(), name, value);
  });
  return out;
}

void CounterSet::merge(const CounterSet& other) {
  other.for_each([this](const std::string& name, std::uint64_t value) {
    inc(intern(name), value);
  });
}

void CounterSet::reset() noexcept {
  for (auto& slot : slots_) slot = Slot{};
}

void StatShard::merge(const StatShard& other) {
  counters.merge(other.counters);
  for (const auto& [name, stat] : other.running) running[name].merge(stat);
}

}  // namespace cfm::sim
