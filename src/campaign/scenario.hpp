// Campaign scenarios: the sweep DSL behind `cfm_campaign`.
//
// Every paper table/figure is a sweep over the AT-space parameters
// (n, b, c, m, protocol, load); a *scenario* makes that sweep a
// first-class document instead of a hand-written bench loop.  A scenario
// is a small JSON file, parsed with sim::Json's strict parser:
//
//   { "name":     "cfm_small_grid",
//     "workload": "cfm",                        // see WorkloadKind
//     "params":   { "rate": 0.2, "cycles": 2000 },   // fixed knobs
//     "sweep":    { "n": [2, 4, 8], "c": [1, 2, 4],
//                   "seed": [1, 2, 3] },        // axes -> cartesian grid
//     "audit":    true,                         // runtime ConflictAuditor
//     "fault_plan": "bank_dead@500:bank=1",     // optional (cfm only)
//     "base_seed": 42, "retries": 1 }           // optional
//
// Validation is strict and happens at parse/expand time: unknown keys,
// duplicate axes (a key both fixed and swept), axes that are not arrays
// of scalars, missing required workload parameters, and grid points that
// break the conflict-free constraint b = c*n all throw
// std::invalid_argument with a pointed message — a typo must not
// silently run the wrong grid.
//
// Expansion walks the axes in sorted key order (last axis fastest, each
// axis's values in file order) and yields one PointSpec per grid point.
// A point's canonical JSON (sorted keys, schema marker, resolved params)
// is the unit the result cache is keyed on; its RNG seed is derived from
// base_seed and that canonical form via Rng::split, so seeds are stable
// under grid edits (adding an axis value never reseeds existing points).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/report.hpp"

namespace cfm::campaign {

/// Workload families a scenario can drive.  Each maps onto an existing
/// workload entry point (access_gen / lock_workload / trace replay) or,
/// for Tradeoff, the analytic Table 3.3 enumeration.
enum class WorkloadKind : std::uint8_t {
  Cfm,          ///< measure_instrumented on the real CfmMemory
  Conventional, ///< measure_conventional (contended baseline)
  PartialCfm,   ///< measure_partial_cfm (locality lambda)
  TraceReplay,  ///< Trace::uniform + replay_on_cfm_instrumented
  Lock,         ///< run_lock_farm_{cfm,cached,snoopy}
  Tradeoff,     ///< Table 3.3 configuration rows (pure analytic)
  Coded,        ///< measure_instrumented on the coded-redundancy
                ///< backend (banks provisioned ≠ c*n, CodedRelaxed audit)
};

[[nodiscard]] std::string_view workload_name(WorkloadKind kind) noexcept;
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadKind workload_from_name(std::string_view name);

/// One expanded grid point: workload + fully resolved parameters.
struct PointSpec {
  WorkloadKind workload = WorkloadKind::Cfm;
  bool audit = false;
  std::string fault_plan;          ///< empty = clean machine
  std::uint64_t base_seed = 0;
  sim::Json params = sim::Json::object();  ///< resolved axis + fixed knobs

  /// Cache-key schema: bump when the point result format changes so stale
  /// cache entries miss instead of validating.
  static constexpr const char* kSchema = "cfm-point/v1";

  /// Canonical JSON of this point (schema marker + every field above).
  /// sim::Json keeps object keys sorted, so dump() is a stable content
  /// address.
  [[nodiscard]] sim::Json canonical() const;
  /// canonical_hash_hex(canonical()) — the result-cache file name.
  [[nodiscard]] std::string cache_key() const;
  /// Deterministic per-point RNG seed: an independent stream split off
  /// Rng(base_seed ^ canonical_hash(point)).  Stable under grid edits.
  [[nodiscard]] std::uint64_t rng_seed() const;
  /// Integer parameter lookup.  Throws std::invalid_argument naming the
  /// key and value when it is negative or not integral (2.5), or, for
  /// param_u32, above 2^32 - 1: a value is run as written or not at all.
  [[nodiscard]] std::uint64_t param_u64(const std::string& key) const;
  [[nodiscard]] std::uint32_t param_u32(const std::string& key) const;
  [[nodiscard]] double param_double(const std::string& key) const;
  [[nodiscard]] bool has_param(const std::string& key) const;
};

/// A parsed, validated scenario: fixed params plus sweep axes.
class Scenario {
 public:
  /// Parses and validates a scenario document.  Throws
  /// std::invalid_argument on any violation of the DSL (see file
  /// comment); sim::JsonParseError propagates from malformed JSON text.
  [[nodiscard]] static Scenario parse(const sim::Json& doc);
  [[nodiscard]] static Scenario parse_text(const std::string& text);
  /// Reads and parses `path`; throws std::invalid_argument when the file
  /// cannot be read.
  [[nodiscard]] static Scenario load_file(const std::string& path);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] WorkloadKind workload() const noexcept { return workload_; }
  [[nodiscard]] bool audit() const noexcept { return audit_; }
  [[nodiscard]] const std::string& fault_plan() const noexcept {
    return fault_plan_;
  }
  [[nodiscard]] std::uint64_t base_seed() const noexcept { return base_seed_; }
  /// Bounded retries per faulted (throwing) point before it counts as
  /// failed.
  [[nodiscard]] std::uint32_t retries() const noexcept { return retries_; }
  /// Sweep axes, sorted by key; each axis's values in file order.
  [[nodiscard]] const std::vector<std::pair<std::string, sim::Json::Array>>&
  axes() const noexcept {
    return axes_;
  }

  /// Grid cardinality (product of axis lengths; 1 with no axes).
  [[nodiscard]] std::size_t grid_size() const noexcept;
  /// Expands the cartesian grid and validates every point (required
  /// keys present, conflict-free constraint b = c*n, tradeoff
  /// divisibility).  Throws std::invalid_argument naming the offending
  /// point.
  [[nodiscard]] std::vector<PointSpec> expand() const;

  /// Canonical scenario document (round-trips through parse()).
  [[nodiscard]] sim::Json to_json() const;

 private:
  /// Per-point semantic checks (conflict-free b = c*n, value ranges,
  /// lock-variant names, tradeoff divisibility).
  void validate_point(const PointSpec& point) const;

  std::string name_;
  WorkloadKind workload_ = WorkloadKind::Cfm;
  bool audit_ = false;
  std::string fault_plan_;
  std::uint64_t base_seed_ = 0x5eedULL;
  std::uint32_t retries_ = 1;
  sim::Json params_ = sim::Json::object();
  std::vector<std::pair<std::string, sim::Json::Array>> axes_;
};

}  // namespace cfm::campaign
