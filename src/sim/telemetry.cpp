#include "sim/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <utility>

#include "sim/fault.hpp"

namespace cfm::sim {

namespace {

/// Folds `src` into `dst` (same downsample bucket): counters and sketches
/// are additive; gauges take the later window's value (last-value wins,
/// matching what a boundary sample at the merged window's end would see).
void merge_rows(TelemetrySampler::Row& dst, TelemetrySampler::Row&& src) {
  for (std::size_t i = 0; i < dst.counters.size(); ++i) {
    dst.counters[i] += src.counters[i];
  }
  for (std::size_t i = 0; i < dst.hists.size(); ++i) {
    dst.hists[i].merge(src.hists[i]);
  }
  dst.gauges = std::move(src.gauges);
}

/// Re-buckets rows at `group` cycles, merging neighbours that land in the
/// same bucket.  Rows arrive sorted by start, so one forward pass is a
/// canonical re-bucketing.
void normalize(std::vector<TelemetrySampler::Row>& rows, Cycle group) {
  std::vector<TelemetrySampler::Row> out;
  out.reserve(rows.size());
  for (auto& r : rows) {
    const Cycle key = (r.start / group) * group;
    if (!out.empty() && out.back().start == key) {
      merge_rows(out.back(), std::move(r));
    } else {
      r.start = key;
      out.push_back(std::move(r));
    }
  }
  rows = std::move(out);
}

/// Deterministic downsampling: double the window scale and re-bucket
/// until the recorder fits.  Because `normalize` is associative over the
/// activity stream, folding eagerly (as samples arrive) and folding late
/// (over the full stream at export) reach the same rows and scale.
void fold_to_capacity(std::vector<TelemetrySampler::Row>& rows, Cycle base,
                      std::uint64_t& scale, std::size_t capacity) {
  normalize(rows, base * scale);
  while (rows.size() > capacity) {
    scale *= 2;
    normalize(rows, base * scale);
  }
}

/// Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string sanitize_metric(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_';
    if (!ok) ch = '_';
  }
  return out;
}

std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

Json hist_window_json(const Log2Histogram& h) {
  auto j = Json::object();
  j["count"] = h.total();
  j["mean"] = h.mean();
  j["p50"] = h.quantile(0.50);
  j["p95"] = h.quantile(0.95);
  j["p99"] = h.quantile(0.99);
  return j;
}

}  // namespace

TelemetrySampler::TelemetrySampler(std::string name, Cycle window,
                                   std::size_t capacity)
    : Component(std::move(name), kSharedDomain, phase_bit(Phase::Commit)),
      window_(std::max<Cycle>(1, window)),
      capacity_(std::max<std::size_t>(2, capacity)) {
  // Quiescent until the first window boundary; the fast path clamps jumps
  // and span fusion there instead of ticking us every cycle.
  set_next_event(Phase::Commit, window_ - 1);
}

void TelemetrySampler::add_counter(std::string name, CounterFn fn) {
  counter_names_.push_back(std::move(name));
  counter_fns_.push_back(std::move(fn));
  last_.counters.push_back(0);
}

void TelemetrySampler::add_gauge(std::string name, GaugeFn fn) {
  gauge_names_.push_back(std::move(name));
  gauge_fns_.push_back(std::move(fn));
  last_.gauges.push_back(0.0);
}

void TelemetrySampler::add_histogram(std::string name,
                                     const Log2Histogram* hist) {
  hist_names_.push_back(std::move(name));
  hist_ptrs_.push_back(hist);
  last_.hists.emplace_back();
}

TelemetrySampler::Snapshot TelemetrySampler::read_sources(
    Cycle gauge_now) const {
  Snapshot s;
  s.counters.reserve(counter_fns_.size());
  for (const auto& fn : counter_fns_) s.counters.push_back(fn());
  s.gauges.reserve(gauge_fns_.size());
  for (const auto& fn : gauge_fns_) s.gauges.push_back(fn(gauge_now));
  s.hists.reserve(hist_ptrs_.size());
  for (const auto* h : hist_ptrs_) s.hists.push_back(*h);
  return s;
}

void TelemetrySampler::tick_phase(Phase /*phase*/, Cycle now) {
  if ((now + 1) % window_ != 0) {
    // Ticked off-boundary (e.g. before the first hint was honoured):
    // just re-publish the next boundary.
    set_next_event(Phase::Commit, ((now / window_) + 1) * window_ - 1);
    return;
  }
  take_sample(now);
  set_next_event(Phase::Commit, now + window_);
}

void TelemetrySampler::take_sample(Cycle now) {
  Snapshot cur = read_sources(now);
  const std::uint64_t index = (now + 1) / window_;  // windows ended so far

  Row row;
  row.start = (index - 1) * window_;
  row.counters.resize(cur.counters.size());
  bool activity = false;
  for (std::size_t i = 0; i < cur.counters.size(); ++i) {
    row.counters[i] = cur.counters[i] - last_.counters[i];
    activity |= row.counters[i] != 0;
  }
  row.hists.reserve(cur.hists.size());
  for (std::size_t i = 0; i < cur.hists.size(); ++i) {
    Log2Histogram delta = cur.hists[i];
    delta.subtract(last_.hists[i]);
    activity |= delta.total() != 0;
    row.hists.push_back(std::move(delta));
  }
  if (have_prev_gauges_) {
    for (std::size_t i = 0; i < cur.gauges.size(); ++i) {
      activity |= cur.gauges[i] != last_.gauges[i];
    }
  }
  row.gauges = cur.gauges;

  if (activity) {
    // Appended rows stay at base-window keys until the recorder overflows;
    // export re-normalizes its own copy, and normalize is associative, so
    // deferring the merge never changes the exported series.
    records_.push_back(std::move(row));
    if (records_.size() > capacity_) {
      fold_to_capacity(records_, window_, scale_, capacity_);
    }
  }
  last_ = std::move(cur);
  have_prev_gauges_ = true;
  windows_crossed_ = index;
}

TelemetrySampler::Row TelemetrySampler::pending_row(Cycle gauge_now,
                                                    bool& has_activity) const {
  Snapshot cur = read_sources(gauge_now);
  Row row;
  row.start = windows_crossed_ * window_;
  row.counters.resize(cur.counters.size());
  has_activity = false;
  for (std::size_t i = 0; i < cur.counters.size(); ++i) {
    row.counters[i] = cur.counters[i] - last_.counters[i];
    has_activity |= row.counters[i] != 0;
  }
  row.hists.reserve(cur.hists.size());
  for (std::size_t i = 0; i < cur.hists.size(); ++i) {
    Log2Histogram delta = cur.hists[i];
    delta.subtract(last_.hists[i]);
    has_activity |= delta.total() != 0;
    row.hists.push_back(std::move(delta));
  }
  row.gauges = cur.gauges;
  return row;
}

TelemetrySampler::Series TelemetrySampler::series(Cycle horizon) const {
  Series s;
  s.base_window = window_;
  s.capacity = capacity_;
  s.horizon = horizon;
  s.counter_names = counter_names_;
  s.gauge_names = gauge_names_;
  s.hist_names = hist_names_;
  s.rows = records_;
  s.scale = scale_;

  // Flush the still-open window: a run whose engine clock stopped short
  // of the next boundary must export the same tail a longer-running (but
  // otherwise identical) engine sampled at that boundary.
  bool activity = false;
  Row pending = pending_row(horizon, activity);
  if (activity) s.rows.push_back(std::move(pending));
  fold_to_capacity(s.rows, window_, s.scale, capacity_);

  // Truncate records past the activity horizon: engines over-run the last
  // interesting cycle by pacing-dependent amounts, and e.g. a fault
  // expiring after the last request may flip gauges only some engines
  // were still awake to sample.
  std::erase_if(s.rows, [&](const Row& r) { return r.start > horizon; });

  s.window_cycles = window_ * s.scale;
  s.totals.reserve(counter_fns_.size());
  for (const auto& fn : counter_fns_) s.totals.push_back(fn());
  return s;
}

Json TelemetrySampler::to_json(Cycle horizon) const {
  const Series s = series(horizon);
  auto j = Json::object();
  j["schema"] = "cfm-timeseries/v1";
  j["base_window"] = s.base_window;
  j["window_cycles"] = s.window_cycles;
  j["scale"] = s.scale;
  j["capacity"] = s.capacity;
  j["horizon"] = s.horizon;

  auto names = Json::array();
  for (const auto& n : s.counter_names) names.push_back(n);
  j["counters"] = std::move(names);
  auto gnames = Json::array();
  for (const auto& n : s.gauge_names) gnames.push_back(n);
  j["gauges"] = std::move(gnames);
  auto hnames = Json::array();
  for (const auto& n : s.hist_names) hnames.push_back(n);
  j["histograms"] = std::move(hnames);

  auto windows = Json::array();
  for (const auto& row : s.rows) {
    auto w = Json::object();
    w["start"] = row.start;
    auto cs = Json::array();
    for (const auto c : row.counters) cs.push_back(c);
    w["counters"] = std::move(cs);
    auto gs = Json::array();
    for (const auto g : row.gauges) gs.push_back(g);
    w["gauges"] = std::move(gs);
    auto hs = Json::object();
    for (std::size_t i = 0; i < row.hists.size(); ++i) {
      hs[s.hist_names[i]] = hist_window_json(row.hists[i]);
    }
    w["hist"] = std::move(hs);
    windows.push_back(std::move(w));
  }
  j["windows"] = std::move(windows);

  auto totals = Json::object();
  for (std::size_t i = 0; i < s.counter_names.size(); ++i) {
    totals[s.counter_names[i]] = s.totals[i];
  }
  j["totals"] = std::move(totals);
  return j;
}

Json TelemetrySampler::live_json(Cycle now) const {
  bool activity = false;
  const Row pending = pending_row(now, activity);

  auto j = Json::object();
  j["schema"] = "cfm-telemetry-live/v1";
  j["cycle"] = now;
  j["window_cycles"] = window_;

  auto win = Json::object();
  win["start"] = pending.start;
  auto deltas = Json::object();
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    deltas[counter_names_[i]] = pending.counters[i];
  }
  win["counters"] = std::move(deltas);
  auto hists = Json::object();
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    hists[hist_names_[i]] = hist_window_json(pending.hists[i]);
  }
  win["hist"] = std::move(hists);
  j["window"] = std::move(win);

  auto gauges = Json::object();
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    gauges[gauge_names_[i]] = pending.gauges[i];
  }
  j["gauges"] = std::move(gauges);

  auto totals = Json::object();
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    totals[counter_names_[i]] = counter_fns_[i]();
  }
  j["totals"] = std::move(totals);
  j["windows_recorded"] = records_.size();
  return j;
}

std::string TelemetrySampler::prometheus_text(Cycle now) const {
  std::string out;
  out += "# TYPE cfm_cycle counter\ncfm_cycle " + std::to_string(now) + "\n";
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    const std::string m = "cfm_" + sanitize_metric(counter_names_[i]);
    out += "# TYPE " + m + " counter\n";
    out += m + " " + std::to_string(counter_fns_[i]()) + "\n";
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    const std::string m = "cfm_" + sanitize_metric(gauge_names_[i]);
    out += "# TYPE " + m + " gauge\n";
    out += m + " " + format_value(gauge_fns_[i](now)) + "\n";
  }
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    const std::string base = "cfm_" + sanitize_metric(hist_names_[i]);
    const Log2Histogram& h = *hist_ptrs_[i];
    out += "# TYPE " + base + "_count counter\n";
    out += base + "_count " + std::to_string(h.total()) + "\n";
    for (const auto& [suffix, q] :
         {std::pair{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}}) {
      const std::string m = base + suffix;
      out += "# TYPE " + m + " gauge\n";
      out += m + " " + format_value(h.quantile(q)) + "\n";
    }
  }
  return out;
}

void TelemetrySampler::export_chrome(ChromeTrace& trace, Cycle horizon) const {
  const Series s = series(horizon);
  for (const auto& row : s.rows) {
    const auto ts = static_cast<double>(row.start);
    for (std::size_t i = 0; i < s.counter_names.size(); ++i) {
      trace.counter("telemetry/" + s.counter_names[i], ts,
                    static_cast<double>(row.counters[i]));
    }
    for (std::size_t i = 0; i < s.gauge_names.size(); ++i) {
      trace.counter("telemetry/" + s.gauge_names[i], ts, row.gauges[i]);
    }
  }
}

namespace {

// detect_anomalies thresholds.
constexpr double kSloAttainmentMin = 0.9;  ///< per-window SLO breach
constexpr double kCliffFraction = 0.4;     ///< rate below fraction * mean
constexpr std::size_t kCliffTrailing = 4;  ///< windows in the trailing mean
constexpr std::uint64_t kMinVolume = 16;   ///< ignore thinner windows

std::size_t name_index(const std::vector<std::string>& names,
                       const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? names.size()
                           : static_cast<std::size_t>(it - names.begin());
}

struct RowFlags {
  bool degraded = false;
  bool slo_miss = false;
};

std::vector<RowFlags> classify_rows(const TelemetrySampler::Series& s,
                                    const RecoveryConfig& cfg) {
  std::vector<std::size_t> degraded_idx;
  for (const auto& n : cfg.degraded_counters) {
    if (const auto i = name_index(s.counter_names, n); i < s.counter_names.size()) {
      degraded_idx.push_back(i);
    }
  }
  const auto completed = name_index(s.counter_names, cfg.completed_counter);
  const auto slo = name_index(s.counter_names, cfg.slo_counter);
  const bool have_slo =
      completed < s.counter_names.size() && slo < s.counter_names.size();

  std::vector<RowFlags> flags(s.rows.size());
  for (std::size_t r = 0; r < s.rows.size(); ++r) {
    const auto& row = s.rows[r];
    for (const auto i : degraded_idx) {
      if (row.counters[i] != 0) flags[r].degraded = true;
    }
    if (have_slo && row.counters[completed] > row.counters[slo]) {
      flags[r].slo_miss = true;
      flags[r].degraded = true;
    }
  }
  return flags;
}

}  // namespace

Json recovery_table(const TelemetrySampler::Series& s, const FaultPlan& plan,
                    const RecoveryConfig& cfg) {
  const auto flags = classify_rows(s, cfg);
  auto rows = Json::array();
  for (const auto& spec : plan.specs()) {
    // Attribute windows to this fault up to the next-later fault's onset
    // (degradation past that point belongs to the newer fault).
    Cycle region_end = s.horizon + 1;
    for (const auto& other : plan.specs()) {
      if (other.at > spec.at) region_end = std::min(region_end, other.at);
    }

    std::uint64_t degraded_windows = 0;
    std::uint64_t windows_under_slo = 0;
    Cycle first_degraded = 0;
    Cycle last_degraded_end = 0;
    for (std::size_t r = 0; r < s.rows.size(); ++r) {
      const Cycle start = s.rows[r].start;
      const Cycle end = start + s.window_cycles;
      if (end <= spec.at || start >= region_end) continue;
      if (flags[r].degraded) {
        if (degraded_windows == 0) first_degraded = start;
        ++degraded_windows;
        last_degraded_end = end;
      }
      if (flags[r].slo_miss) ++windows_under_slo;
    }

    // "Recovered" = clean air was observable after the last degraded
    // window: the attribution region extends past it AND the horizon does
    // (degradation still in progress at the horizon is not recovery).
    const bool recovered =
        degraded_windows == 0 ||
        last_degraded_end < std::min(region_end, s.horizon);
    const Cycle mttr =
        degraded_windows == 0
            ? 0
            : (last_degraded_end > spec.at ? last_degraded_end - spec.at : 0);

    auto row = Json::object();
    row["kind"] = std::string(fault_kind_name(spec.kind));
    row["at"] = spec.at;
    row["duration"] = spec.duration;
    row["degraded_windows"] = degraded_windows;
    row["first_degraded_start"] = first_degraded;
    row["last_degraded_end"] = last_degraded_end;
    row["recovered"] = recovered;
    row["mttr_cycles"] = mttr;
    row["windows_under_slo"] = windows_under_slo;
    row["time_under_slo_cycles"] = windows_under_slo * s.window_cycles;
    rows.push_back(std::move(row));
  }
  return rows;
}

Json detect_anomalies(const TelemetrySampler::Series& s,
                      const std::string& completed_counter,
                      const std::string& slo_counter,
                      const Json* recovery_rows) {
  auto findings = Json::array();
  const auto completed = name_index(s.counter_names, completed_counter);
  const auto slo = name_index(s.counter_names, slo_counter);
  const bool have_completed = completed < s.counter_names.size();
  const bool have_slo = have_completed && slo < s.counter_names.size();

  std::deque<std::uint64_t> trailing;
  for (const auto& row : s.rows) {
    const std::uint64_t c = have_completed ? row.counters[completed] : 0;
    if (have_slo && c >= kMinVolume) {
      const std::uint64_t within = row.counters[slo];
      const double attainment =
          static_cast<double>(within) / static_cast<double>(c);
      if (attainment < kSloAttainmentMin) {
        auto f = Json::object();
        f["kind"] = "slo_window_breach";
        f["start"] = row.start;
        f["completed"] = c;
        f["within_slo"] = within;
        f["attainment"] = attainment;
        findings.push_back(std::move(f));
      }
    }
    if (have_completed && trailing.size() == kCliffTrailing) {
      std::uint64_t sum = 0;
      for (const auto v : trailing) sum += v;
      const double mean =
          static_cast<double>(sum) / static_cast<double>(trailing.size());
      if (mean >= static_cast<double>(kMinVolume) &&
          static_cast<double>(c) < kCliffFraction * mean) {
        auto f = Json::object();
        f["kind"] = "throughput_cliff";
        f["start"] = row.start;
        f["completed"] = c;
        f["trailing_mean"] = mean;
        findings.push_back(std::move(f));
      }
    }
    if (have_completed) {
      trailing.push_back(c);
      if (trailing.size() > kCliffTrailing) trailing.pop_front();
    }
  }

  if (recovery_rows != nullptr && recovery_rows->is_array()) {
    for (const auto& row : recovery_rows->as_array()) {
      if (row.at("degraded_windows").as_uint() > 0 &&
          !row.at("recovered").as_bool()) {
        auto f = Json::object();
        f["kind"] = "post_fault_non_recovery";
        f["fault"] = row.at("kind");
        f["at"] = row.at("at");
        findings.push_back(std::move(f));
      }
    }
  }

  auto out = Json::object();
  out["count"] = findings.size();
  out["findings"] = std::move(findings);
  return out;
}

}  // namespace cfm::sim
