#include "campaign/executor.hpp"

#include <exception>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace cfm::campaign {

using sim::Json;

std::string describe_point(const PointSpec& point) {
  std::ostringstream os;
  for (const auto& [key, value] : point.params.as_object()) {
    os << ' ' << key << '=' << value.dump();
  }
  return os.str();
}

void execute_with_retry(PointRun& run, std::uint32_t retries,
                        const PointRunner& runner,
                        const std::function<void(const PointRun&)>& persist) {
  run.attempts = 0;
  for (std::uint32_t attempt = 0;; ++attempt) {
    ++run.attempts;
    try {
      run.result = runner(run.spec);
      if (persist) persist(run);
      run.failed = false;
      run.error.clear();
      return;
    } catch (const std::exception& e) {
      if (attempt >= retries) {
        run.error = e.what();
        run.failed = true;
        return;
      }
      // The retried attempt's error used to be discarded silently; keep
      // the most recent one so "succeeded on attempt 3" is diagnosable.
      run.last_retry_error = e.what();
    }
  }
}

sim::Json failure_verdict(const PointRun& run) {
  Json verdict = Json::object();
  verdict["error"] = run.error;
  verdict["attempts"] = run.attempts;
  if (!run.last_retry_error.empty()) {
    verdict["last_retry_error"] = run.last_retry_error;
  }
  return verdict;
}

void apply_failure_verdict(PointRun& run, const sim::Json& verdict) {
  run.failed = true;
  run.error = verdict.at("error").as_string();
  run.attempts = verdict.contains("attempts")
                     ? static_cast<std::uint32_t>(
                           verdict.at("attempts").as_uint())
                     : 1;
  if (verdict.contains("last_retry_error")) {
    run.last_retry_error = verdict.at("last_retry_error").as_string();
  }
}

// ---- aggregation ------------------------------------------------------

Json aggregate(const Scenario& scenario, const std::vector<PointRun>& runs) {
  Json report = Json::object();
  report["schema"] = "cfm-campaign-report/v1";
  report["name"] = scenario.name();
  Json spec = scenario.to_json();
  report["spec_hash"] = sim::canonical_hash_hex(spec);
  report["spec"] = std::move(spec);

  Json axes = Json::object();
  for (const auto& [key, values] : scenario.axes()) {
    axes[key] = Json::array(values);
  }
  report["axes"] = std::move(axes);

  // Per-point rows (expansion order) + the merged containers.
  Json points = Json::array();
  sim::CounterSet merged_counters;
  std::map<std::string, sim::StatSummary> merged_stats;
  std::uint64_t violations = 0, conflicts = 0, checks = 0;
  std::uint64_t points_with_violations = 0;
  std::uint64_t points_with_timeseries = 0, timeseries_windows = 0;
  std::set<std::string> metric_keys;
  for (const auto& run : runs) {
    Json row = Json::object();
    row["key"] = run.spec.cache_key();
    row["params"] = run.spec.params;
    if (run.failed) {
      row["error"] = run.error;
      row["attempts"] = run.attempts;
      if (!run.last_retry_error.empty()) {
        row["last_retry_error"] = run.last_retry_error;
      }
      points.push_back(std::move(row));
      continue;
    }
    // Execution provenance stays out of the deterministic report body:
    // attempts appear only when a retry actually happened (an inherently
    // environmental event that legitimately distinguishes this run).
    if (run.attempts > 1) {
      row["attempts"] = run.attempts;
      row["last_retry_error"] = run.last_retry_error;
    }
    row["metrics"] = run.result.at("metrics");
    for (const auto& [name, value] : run.result.at("metrics").as_object()) {
      if (value.is_number()) metric_keys.insert(name);
    }
    if (run.result.contains("counters")) {
      sim::add_counters_json(merged_counters, run.result.at("counters"));
    }
    if (run.result.contains("stats")) {
      for (const auto& [name, summary] : run.result.at("stats").as_object()) {
        const auto parsed = sim::stat_summary_from_json(summary);
        auto [it, fresh] = merged_stats.emplace(name, parsed);
        if (!fresh) it->second = sim::merge_stat_summaries(it->second, parsed);
      }
    }
    if (run.result.contains("timeseries")) {
      // Per-point series ride along verbatim; points without telemetry
      // keep their row shape (and the report its bytes) unchanged.
      row["timeseries"] = run.result.at("timeseries");
      ++points_with_timeseries;
      timeseries_windows += run.result.at("timeseries").at("windows").size();
    }
    std::uint64_t point_violations = 0;
    if (run.result.contains("audit")) {
      const auto& audit = run.result.at("audit");
      point_violations = audit.at("violations").as_uint();
      violations += point_violations;
      conflicts += audit.at("conflicts_detected").as_uint();
      checks += audit.at("checks").as_uint();
      if (point_violations > 0) ++points_with_violations;
    }
    row["audit_violations"] = point_violations;
    points.push_back(std::move(row));
  }
  report["points"] = std::move(points);
  report["counters"] = sim::to_json(merged_counters);
  Json stats = Json::object();
  for (const auto& [name, summary] : merged_stats) {
    stats[name] = sim::to_json(summary);
  }
  report["stats"] = std::move(stats);

  // Per-axis tables: group the grid by each axis value (file order) and
  // report the mean of every numeric metric over the group.
  Json tables = Json::object();
  for (const auto& [axis, values] : scenario.axes()) {
    Json rows = Json::array();
    for (const auto& value : values) {
      Json row = Json::object();
      row[axis] = value;
      std::size_t group = 0;
      std::map<std::string, sim::RunningStat> per_metric;
      for (const auto& run : runs) {
        if (run.failed || !(run.spec.params.at(axis) == value)) continue;
        ++group;
        for (const auto& name : metric_keys) {
          if (run.result.at("metrics").contains(name)) {
            per_metric[name].add(run.result.at("metrics").at(name).as_double());
          }
        }
      }
      row["points"] = group;
      for (const auto& [name, stat] : per_metric) row[name] = stat.mean();
      rows.push_back(std::move(row));
    }
    tables["by_" + axis] = std::move(rows);
  }
  report["tables"] = std::move(tables);

  Json audit = Json::object();
  audit["violations"] = violations;
  audit["conflicts_detected"] = conflicts;
  audit["checks"] = checks;
  audit["points_with_violations"] = points_with_violations;
  report["audit"] = std::move(audit);

  if (points_with_timeseries != 0) {
    Json rollup = Json::object();
    rollup["points_with_timeseries"] = points_with_timeseries;
    rollup["windows_total"] = timeseries_windows;
    report["timeseries"] = std::move(rollup);
  }

  Json totals = Json::object();
  totals["points"] = runs.size();
  report["totals"] = std::move(totals);
  return report;
}

}  // namespace cfm::campaign
