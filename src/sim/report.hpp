// Structured experiment reports: a minimal JSON value type, serializers
// for the statistics containers (CounterSet / RunningStat / Histogram), a
// `Report` document every bench harness emits as `BENCH_<name>.json`, and
// a Chrome-trace (chrome://tracing JSON array) event sink.
//
// Determinism matters here exactly as it does in the simulator: object
// keys serialize in sorted order and doubles use shortest-round-trip
// formatting (std::to_chars), so the same run produces byte-identical
// reports on every platform — reports are diffable CI artifacts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::sim {

/// Thrown by Json::parse on malformed input.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value: null, bool, integer (signed/unsigned 64-bit preserved
/// exactly), double, string, array, or object.  Objects keep keys sorted
/// (std::map) so serialization is deterministic.
class Json {
 public:
  enum class Kind : std::uint8_t {
    Null, Bool, Int, Uint, Double, String, Array, Object
  };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() noexcept : kind_(Kind::Null) {}
  Json(std::nullptr_t) noexcept : kind_(Kind::Null) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) noexcept : kind_(Kind::Bool), bool_(b) {}  // NOLINT(google-explicit-constructor)
  Json(double d) noexcept : kind_(Kind::Double), double_(d) {}  // NOLINT(google-explicit-constructor)
  Json(const char* s) : kind_(Kind::String), string_(s) {}  // NOLINT(google-explicit-constructor)
  Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Json(T v) noexcept {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_signed_v<T>) {
      kind_ = Kind::Int;
      int_ = static_cast<std::int64_t>(v);
    } else {
      kind_ = Kind::Uint;
      uint_ = static_cast<std::uint64_t>(v);
    }
  }

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json array(Array items);
  [[nodiscard]] static Json object();
  [[nodiscard]] static Json object(
      std::initializer_list<std::pair<const std::string, Json>> members);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Int || kind_ == Kind::Uint || kind_ == Kind::Double;
  }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::Object; }

  [[nodiscard]] bool as_bool() const;
  /// Any numeric kind, widened to double.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object access; creates the member (and converts null -> object).
  Json& operator[](const std::string& key);
  /// Const object lookup; throws std::out_of_range when missing.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Array append; converts null -> array.
  void push_back(Json v);
  [[nodiscard]] std::size_t size() const;

  /// Serializes; indent < 0 is compact, otherwise pretty-printed with
  /// `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;
  void dump_to(std::ostream& os, int indent = -1) const;

  /// Deepest array/object nesting Json::parse accepts.
  static constexpr std::size_t kMaxParseDepth = 512;
  /// Strict recursive-descent parse; throws JsonParseError on malformed
  /// input, trailing garbage or nesting deeper than kMaxParseDepth.
  [[nodiscard]] static Json parse(const std::string& text);

  bool operator==(const Json& other) const;

 private:
  void write(std::ostream& os, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// ---- stats container serializers -------------------------------------

[[nodiscard]] Json to_json(const CounterSet& counters);
/// {"count","mean","min","max","stddev","sum"}.
[[nodiscard]] Json to_json(const RunningStat& stat);
/// Buckets, overflow, total, and the requested quantiles keyed "p50"...
[[nodiscard]] Json to_json(const Histogram& hist,
                           const std::vector<double>& quantiles = {
                               0.5, 0.9, 0.99});

/// Parses a RunningStat summary produced by to_json back into a plain
/// struct (RunningStat itself cannot be reconstructed from moments alone).
struct StatSummary {
  std::uint64_t count = 0;
  double mean = 0.0, min = 0.0, max = 0.0, stddev = 0.0, sum = 0.0;
};
[[nodiscard]] StatSummary stat_summary_from_json(const Json& j);
/// `v` as an exact non-negative integer.  Throws std::invalid_argument
/// naming `prefix`, `key` and the value for anything that would be
/// truncated or wrap (2.5, -4, 1e30, a string); integral doubles ("4.0")
/// are exact.  The message is built only on failure.
[[nodiscard]] std::uint64_t exact_u64(const Json& v, const char* prefix,
                                      const std::string& key);
/// Parses a to_json(CounterSet) object.  Throws std::invalid_argument
/// naming the counter when a value is not a non-negative integer.
[[nodiscard]] CounterSet counters_from_json(const Json& j);
/// Adds the counters of a to_json(CounterSet) object into `into`, with
/// counters_from_json's checks.
void add_counters_json(CounterSet& into, const Json& j);
/// Serializes a StatSummary with the same six fields to_json(RunningStat)
/// emits, so summaries merged outside a RunningStat stay schema-compatible.
[[nodiscard]] Json to_json(const StatSummary& s);
/// Combines two summaries as if their sample streams were concatenated
/// (parallel-variance / Chan's formula for the stddev).  Exact for count,
/// sum, min, max, mean; stddev matches RunningStat::merge to rounding.
[[nodiscard]] StatSummary merge_stat_summaries(const StatSummary& a,
                                               const StatSummary& b);

// ---- canonical hashing & JSON-level merging ---------------------------
//
// Json::dump(-1) is already canonical (sorted object keys, shortest
// round-trip doubles, exact 64-bit integers), so hashing the compact dump
// gives a stable content address for any JSON value — the campaign
// subsystem keys its result cache on it.

/// FNV-1a 64-bit hash of the canonical compact serialization.
[[nodiscard]] std::uint64_t canonical_hash(const Json& value);
/// canonical_hash rendered as 16 lowercase hex digits (cache file names).
[[nodiscard]] std::string canonical_hash_hex(const Json& value);

// ---- Report -----------------------------------------------------------

/// The structured experiment document.  Schema (see DESIGN.md §8):
///
///   { "schema": "cfm-bench-report/v1",
///     "name": "<bench name>",
///     "params":     { ... },          // machine/workload configuration
///     "metrics":    { ... },          // headline scalars
///     "counters":   { "<set>": {..} },
///     "stats":      { "<name>": {count,mean,min,max,stddev,sum} },
///     "histograms": { "<name>": {..., "quantiles": {...}} },
///     "tables":     { "<name>": [ {row}, ... ] } }   // ordered series
class Report {
 public:
  explicit Report(std::string name);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Machine/workload configuration knob (e.g. processors, beta, seed).
  void set_param(const std::string& key, Json value);
  /// Headline scalar metric (e.g. efficiency, mean_latency).
  void add_scalar(const std::string& key, Json value);
  void add_counters(const std::string& name, const CounterSet& counters);
  void add_stat(const std::string& name, const RunningStat& stat);
  void add_histogram(const std::string& name, const Histogram& hist,
                     const std::vector<double>& quantiles = {0.5, 0.9, 0.99});
  /// Appends one row to the named ordered series (curves / table rows).
  void add_row(const std::string& table, Json row);
  /// Attaches an arbitrary JSON subtree (e.g. the txn_trace section).
  void add_section(const std::string& key, Json value);

  [[nodiscard]] Json to_json() const;
  void write(std::ostream& os) const;
  /// Writes to `path`; returns false (and reports nothing) on I/O error.
  [[nodiscard]] bool write_file(const std::string& path) const;

  static constexpr const char* kSchema = "cfm-bench-report/v1";

 private:
  std::string name_;
  Json params_ = Json::object();
  Json metrics_ = Json::object();
  Json counters_ = Json::object();
  Json stats_ = Json::object();
  Json histograms_ = Json::object();
  Json tables_ = Json::object();
  Json sections_ = Json::object();
};

// ---- Chrome trace sink ------------------------------------------------

/// Collects chrome://tracing events ("Trace Event Format", JSON array
/// flavour) and writes them for chrome://tracing / Perfetto.  Appends are
/// thread-safe.
///
/// Two layers feed it, both at ts = simulated cycle (1 cycle == 1 "us"
/// on the trace timeline): TxnTracer::to_chrome (transaction spans and
/// flows) and TelemetrySampler::export_chrome (windowed counters).
class ChromeTrace {
 public:
  /// Instant event ("i"), timestamp in trace units.
  void instant(const std::string& name, const std::string& category,
               double ts_us, int tid = 0);
  /// Complete event ("X"): begin at ts_us, lasting dur_us.
  void complete(const std::string& name, const std::string& category,
                double ts_us, double dur_us, int tid = 0);
  /// Counter event ("C").
  void counter(const std::string& name, double ts_us, double value,
               int tid = 0);
  /// Flow arrow start ("s") / end ("f", bind enclosing slice).  Events
  /// sharing `id` are stitched into one arrow across lanes — how a
  /// transaction's lifecycle stays connected when it hops units.
  void flow_begin(const std::string& name, const std::string& category,
                  double ts_us, std::uint64_t id, int tid = 0);
  void flow_end(const std::string& name, const std::string& category,
                double ts_us, std::uint64_t id, int tid = 0);
  /// Names the timeline lane `tid` ("M"/thread_name metadata event).
  void thread_name(int tid, const std::string& name);

  [[nodiscard]] std::size_t event_count() const;
  /// Writes the JSON array (valid chrome://tracing input).
  void write(std::ostream& os) const;
  [[nodiscard]] bool write_file(const std::string& path) const;
  [[nodiscard]] Json to_json() const;

 private:
  void push(Json event);

  mutable std::mutex mx_;
  Json::Array events_;
};

}  // namespace cfm::sim
