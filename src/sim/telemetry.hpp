// Time-series telemetry: windowed metrics and the flight recorder.
//
// End-of-run aggregates hide exactly the phenomena the paper's evaluation
// cares about — tree saturation builds and drains, a dead bank degrades
// service *for a while*, an SLO is missed in bursts.  `TelemetrySampler`
// turns registered counters/gauges/histograms into fixed-geometry
// per-window series:
//
//   * every W simulated cycles it snapshots each registered source and
//     stores the window's counter deltas, end-of-window gauge values and
//     per-window Log2Histogram delta sketches;
//   * windows with no activity produce **no record** (sparse recording),
//     which is what makes the series independent of how far an engine
//     happens to over-run past the last interesting cycle;
//   * records live in a bounded "flight recorder": when a run outlives
//     capacity the recorder doubles its window scale and merges neighbour
//     records — a pure function of the activity stream, so the per-cycle
//     reference, any span setting, and any run/kill/re-feed pacing all
//     export byte-identical series.
//
// Scheduling: the sampler is a *shared-domain*, Commit-phase component
// that publishes its next window boundary as a quiescence hint and stays
// span-incapable.  The PR 6 fast path therefore still skips idle spans —
// jumps and span fusion simply clamp at the boundary, and the boundary
// cycle executes in reference order, where the sampler reads state after
// the Memory phase exactly like the reference schedule would.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/component.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace cfm::sim {

class FaultPlan;

class TelemetrySampler final : public Component {
 public:
  using CounterFn = std::function<std::uint64_t()>;
  using GaugeFn = std::function<double(Cycle)>;

  static constexpr std::size_t kDefaultCapacity = 512;

  /// `window` is the base sampling period W in cycles (>= 1); `capacity`
  /// bounds the number of retained records before downsampling kicks in.
  TelemetrySampler(std::string name, Cycle window,
                   std::size_t capacity = kDefaultCapacity);

  /// Registers a monotone cumulative counter; the recorder stores per-
  /// window deltas.  Registration order fixes the column order.
  void add_counter(std::string name, CounterFn fn);
  /// Registers an instantaneous gauge sampled at each window boundary.
  void add_gauge(std::string name, GaugeFn fn);
  /// Registers a cumulative Log2Histogram; the recorder stores per-window
  /// bucket deltas (non-owning: the histogram must outlive the sampler).
  void add_histogram(std::string name, const Log2Histogram* hist);

  void tick_phase(Phase phase, Cycle now) override;

  [[nodiscard]] Cycle window() const noexcept { return window_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t windows_crossed() const noexcept {
    return windows_crossed_;
  }
  [[nodiscard]] std::uint64_t scale() const noexcept { return scale_; }

  /// One flight-recorder row: the window [start, start + window_cycles).
  struct Row {
    Cycle start = 0;
    std::vector<std::uint64_t> counters;  ///< deltas over the window
    std::vector<double> gauges;           ///< value at the window's end
    std::vector<Log2Histogram> hists;     ///< per-window delta sketches
  };

  /// A folded, horizon-truncated view of the recorder, including the
  /// still-open window's activity as a final row.
  struct Series {
    Cycle base_window = 0;
    Cycle window_cycles = 0;  ///< base_window * scale
    std::uint64_t scale = 1;
    std::size_t capacity = 0;
    Cycle horizon = 0;
    std::vector<std::string> counter_names;
    std::vector<std::string> gauge_names;
    std::vector<std::string> hist_names;
    std::vector<Row> rows;
    std::vector<std::uint64_t> totals;  ///< cumulative counters at export
  };

  [[nodiscard]] Series series(Cycle horizon) const;
  /// The `timeseries` report section for `series(horizon)`.
  [[nodiscard]] Json to_json(Cycle horizon) const;
  /// Snapshot of the *current* window (deltas since the last boundary),
  /// live gauges, and cumulative totals — the `.stats` view.
  [[nodiscard]] Json live_json(Cycle now) const;
  /// Prometheus text exposition of cumulative counters, live gauges and
  /// histogram quantiles, for `--metrics-out` / `.metrics` scraping.
  [[nodiscard]] std::string prometheus_text(Cycle now) const;
  /// Layers one counter track per counter/gauge onto a Chrome trace
  /// (ts = window start, 1 cycle == 1 trace "us").
  void export_chrome(ChromeTrace& trace, Cycle horizon) const;

 private:
  struct Snapshot {
    std::vector<std::uint64_t> counters;
    std::vector<double> gauges;
    std::vector<Log2Histogram> hists;
  };

  void take_sample(Cycle now);
  /// Deltas of the still-open window vs. the last boundary; empty
  /// optional-style: `has_activity` false means "no record".
  [[nodiscard]] Row pending_row(Cycle gauge_now, bool& has_activity) const;
  [[nodiscard]] Snapshot read_sources(Cycle gauge_now) const;

  Cycle window_;
  std::size_t capacity_;

  std::vector<std::string> counter_names_;
  std::vector<CounterFn> counter_fns_;
  std::vector<std::string> gauge_names_;
  std::vector<GaugeFn> gauge_fns_;
  std::vector<std::string> hist_names_;
  std::vector<const Log2Histogram*> hist_ptrs_;

  /// Cumulative source values at the last window boundary.
  Snapshot last_;
  bool have_prev_gauges_ = false;
  std::uint64_t windows_crossed_ = 0;  ///< boundaries sampled so far

  std::vector<Row> records_;
  std::uint64_t scale_ = 1;
};

/// Which columns mark a window "degraded" for MTTR derivation.
struct RecoveryConfig {
  /// Counters whose positive window delta marks degradation (retries,
  /// failures, fault restarts, ...).
  std::vector<std::string> degraded_counters;
  /// Completion / within-SLO counter pair for slo-miss attribution;
  /// either may be empty to disable the SLO criterion.
  std::string completed_counter;
  std::string slo_counter;
};

/// Per-fault degradation/recovery rows derived from the series: for every
/// spec of `plan`, when degradation was first/last observed, whether the
/// machine recovered before the horizon, the MTTR in cycles, and the
/// time spent under SLO.  Returns a JSON array of rows.
[[nodiscard]] Json recovery_table(const TelemetrySampler::Series& series,
                                  const FaultPlan& plan,
                                  const RecoveryConfig& cfg);

/// Threshold scan over the series: per-window SLO breaches (attainment
/// below 0.9), throughput cliffs (a window below 0.4 × the mean of the 4
/// before it), and (when `recovery` rows are supplied) post-fault
/// non-recovery.  Windows that complete fewer than 16 requests are not
/// judged.  Returns {"count": N, "findings": [...]}.
[[nodiscard]] Json detect_anomalies(const TelemetrySampler::Series& series,
                                    const std::string& completed_counter,
                                    const std::string& slo_counter,
                                    const Json* recovery_rows);

}  // namespace cfm::sim
