// Host-time spans around the benchmark's calls into the simulator.
//
// A Span times one call with std::chrono::steady_clock whether or not
// tracing is on, so the untraced and traced runs share one code path.
// With tracing on it also records {id, parent, name, start, end} in the
// Tracer, in memory; the records are written once, at exit.  Span names
// follow "<layer>.<call>" (serve.run, sim.engine.run_for, cfm.tick, ...),
// and layer "bench" marks the benchmark's own grouping spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/report.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  using SpanId = std::uint32_t;
  static constexpr SpanId kRoot = 0;

  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span record; returns kRoot (records nothing) when disabled.
  /// Thread-safe: campaign points run on pool threads.
  SpanId open(const char* name, SpanId parent, Clock::time_point start) {
    if (!enabled_) return kRoot;
    std::lock_guard<std::mutex> lock(mx_);
    records_.push_back(Record{parent, name, start, start});
    return static_cast<SpanId>(records_.size());
  }
  void close(SpanId id, Clock::time_point end) {
    if (id == kRoot) return;
    std::lock_guard<std::mutex> lock(mx_);
    records_[id - 1].end = end;
  }

  /// {"run_id", "spans": [{"id","parent","name","start_ns","end_ns"}]},
  /// times in nanoseconds since the tracer was created.
  [[nodiscard]] cfm::sim::Json to_json() const {
    using cfm::sim::Json;
    std::lock_guard<std::mutex> lock(mx_);
    Json spans = Json::array();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      Json s = Json::object();
      s["id"] = static_cast<std::uint64_t>(i + 1);
      s["parent"] = static_cast<std::uint64_t>(r.parent);
      s["name"] = r.name;
      s["start_ns"] = ns_since_epoch(r.start);
      s["end_ns"] = ns_since_epoch(r.end);
      spans.push_back(std::move(s));
    }
    Json doc = Json::object();
    doc["run_id"] = run_id_;
    doc["spans"] = std::move(spans);
    return doc;
  }

 private:
  struct Record {
    SpanId parent;
    const char* name;  ///< string literal
    Clock::time_point start;
    Clock::time_point end;
  };

  [[nodiscard]] std::int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  std::string run_id_;
  Clock::time_point epoch_;
  mutable std::mutex mx_;
  std::vector<Record> records_;
};

/// RAII span.  The implicit parent is the innermost open span on the
/// calling thread; work handed to another thread names its parent
/// explicitly.
class Span {
 public:
  Span(Tracer& tracer, const char* name) : Span(tracer, name, current()) {}
  Span(Tracer& tracer, const char* name, Tracer::SpanId parent)
      : tracer_(tracer),
        start_(Clock::now()),
        id_(tracer.open(name, parent, start_)),
        saved_(current()) {
    if (id_ != Tracer::kRoot) current() = id_;
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (!open_) return seconds_;
    const auto end = Clock::now();
    open_ = false;
    seconds_ = seconds_between(start_, end);
    tracer_.close(id_, end);
    if (id_ != Tracer::kRoot) current() = saved_;
    return seconds_;
  }
  [[nodiscard]] Tracer::SpanId id() const noexcept { return id_; }

 private:
  static Tracer::SpanId& current() {
    thread_local Tracer::SpanId id = Tracer::kRoot;
    return id;
  }

  Tracer& tracer_;
  Clock::time_point start_;
  Tracer::SpanId id_;
  Tracer::SpanId saved_;
  bool open_ = true;
  double seconds_ = 0.0;
};

}  // namespace perfbench
