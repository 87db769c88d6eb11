#include "campaign/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "mem/coded/code_descriptor.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace cfm::campaign {
namespace {

using sim::exact_u64;
using sim::Json;

[[noreturn]] void bad(const std::string& msg) {
  throw std::invalid_argument("scenario: " + msg);
}

/// Per-workload parameter contract: which keys must appear on every
/// expanded point and which may.  Everything else is a typo and throws.
struct ParamContract {
  std::vector<std::string> required;
  std::vector<std::string> optional;
};

const ParamContract& contract(WorkloadKind kind) {
  static const ParamContract kCfm{
      {"n", "c", "rate", "cycles"},
      {"b", "seed", "spares", "telemetry_window", "telemetry_capacity"}};
  static const ParamContract kConventional{{"n", "m", "beta", "rate", "cycles"},
                                           {"seed"}};
  static const ParamContract kPartial{
      {"n", "m", "beta", "rate", "locality", "cycles"}, {"seed"}};
  static const ParamContract kReplay{
      {"n", "c", "blocks", "accesses", "span", "write_fraction"}, {"seed"}};
  static const ParamContract kLock{{"variant", "contenders", "hold", "cycles"},
                                   {"seed"}};
  static const ParamContract kTradeoff{{"block_bits", "b", "c"}, {}};
  static const ParamContract kCoded{
      {"n", "c", "rate", "cycles", "data_banks", "stripe_width", "code_rate",
       "parity_policy"},
      {"seed", "write_fraction", "log_capacity", "telemetry_window",
       "telemetry_capacity"}};
  switch (kind) {
    case WorkloadKind::Cfm: return kCfm;
    case WorkloadKind::Conventional: return kConventional;
    case WorkloadKind::PartialCfm: return kPartial;
    case WorkloadKind::TraceReplay: return kReplay;
    case WorkloadKind::Lock: return kLock;
    case WorkloadKind::Tradeoff: return kTradeoff;
    case WorkloadKind::Coded: return kCoded;
  }
  bad("unknown workload kind");
}

bool key_allowed(const ParamContract& c, const std::string& key) {
  for (const auto& k : c.required) {
    if (k == key) return true;
  }
  for (const auto& k : c.optional) {
    if (k == key) return true;
  }
  return false;
}

/// Scalar parameter values only; "variant" (the lock flavour) and
/// "parity_policy" (the coded write path) are the string-valued keys,
/// everything else must be numeric.
void check_param_value(WorkloadKind kind, const std::string& key,
                       const Json& value, const char* where) {
  if (key == "variant") {
    if (kind != WorkloadKind::Lock || !value.is_string()) {
      bad(std::string(where) + " 'variant' must be a string on the lock "
          "workload");
    }
    return;
  }
  if (key == "parity_policy") {
    if (kind != WorkloadKind::Coded || !value.is_string()) {
      bad(std::string(where) + " 'parity_policy' must be a string on the "
          "coded workload");
    }
    return;
  }
  if (!value.is_number()) {
    bad(std::string(where) + " '" + key + "' must be a number");
  }
}

std::string point_desc(const Json& params) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [key, value] : params.as_object()) {
    os << (first ? "" : " ") << key << '=' << value.dump();
    first = false;
  }
  return os.str();
}

}  // namespace

std::string_view workload_name(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::Cfm: return "cfm";
    case WorkloadKind::Conventional: return "conventional";
    case WorkloadKind::PartialCfm: return "partial_cfm";
    case WorkloadKind::TraceReplay: return "trace_replay";
    case WorkloadKind::Lock: return "lock";
    case WorkloadKind::Tradeoff: return "tradeoff";
    case WorkloadKind::Coded: return "coded";
  }
  return "?";
}

WorkloadKind workload_from_name(std::string_view name) {
  for (const auto kind :
       {WorkloadKind::Cfm, WorkloadKind::Conventional, WorkloadKind::PartialCfm,
        WorkloadKind::TraceReplay, WorkloadKind::Lock, WorkloadKind::Tradeoff,
        WorkloadKind::Coded}) {
    if (workload_name(kind) == name) return kind;
  }
  bad("unknown workload '" + std::string(name) + "'");
}

// ---- PointSpec --------------------------------------------------------

sim::Json PointSpec::canonical() const {
  Json doc = Json::object();
  doc["schema"] = kSchema;
  doc["workload"] = std::string(workload_name(workload));
  doc["audit"] = audit;
  doc["fault_plan"] = fault_plan;
  doc["base_seed"] = base_seed;
  doc["params"] = params;
  return doc;
}

std::string PointSpec::cache_key() const {
  return sim::canonical_hash_hex(canonical());
}

std::uint64_t PointSpec::rng_seed() const {
  // An independent xoshiro stream split off a generator keyed on the
  // point's content address: stable under grid edits (adding an axis
  // value never reseeds existing points), distinct across points, and
  // uncorrelated with the raw base_seed arithmetic.
  sim::Rng keyed(base_seed ^ sim::canonical_hash(canonical()));
  return keyed.split()();
}

std::uint64_t PointSpec::param_u64(const std::string& key) const {
  return exact_u64(params.at(key), "parameter ", key);
}

std::uint32_t PointSpec::param_u32(const std::string& key) const {
  const std::uint64_t v = param_u64(key);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "parameter '" + key + "' = " + std::to_string(v) +
        " is out of range (max " +
        std::to_string(std::numeric_limits<std::uint32_t>::max()) + ")");
  }
  return static_cast<std::uint32_t>(v);
}

double PointSpec::param_double(const std::string& key) const {
  return params.at(key).as_double();
}

bool PointSpec::has_param(const std::string& key) const {
  return params.contains(key);
}

// ---- Scenario ---------------------------------------------------------

Scenario Scenario::parse(const sim::Json& doc) {
  if (!doc.is_object()) bad("top level must be an object");
  static const std::set<std::string> kTopKeys{
      "name", "workload", "params", "sweep",
      "audit", "fault_plan", "base_seed", "retries"};
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (kTopKeys.count(key) == 0) bad("unknown key '" + key + "'");
  }
  Scenario sc;
  if (!doc.contains("name") || !doc.at("name").is_string() ||
      doc.at("name").as_string().empty()) {
    bad("'name' must be a non-empty string");
  }
  sc.name_ = doc.at("name").as_string();
  if (!doc.contains("workload") || !doc.at("workload").is_string()) {
    bad("'workload' must name a workload");
  }
  sc.workload_ = workload_from_name(doc.at("workload").as_string());
  const auto& params_contract = contract(sc.workload_);

  if (doc.contains("audit")) {
    if (!doc.at("audit").is_bool()) bad("'audit' must be a bool");
    sc.audit_ = doc.at("audit").as_bool();
  }
  if (sc.audit_ && sc.workload_ != WorkloadKind::Cfm &&
      sc.workload_ != WorkloadKind::TraceReplay &&
      sc.workload_ != WorkloadKind::Coded) {
    bad("audit is only supported on the cfm, trace_replay and coded "
        "workloads (the others have no audited scope to watch)");
  }
  if (doc.contains("fault_plan")) {
    if (!doc.at("fault_plan").is_string()) bad("'fault_plan' must be a string");
    sc.fault_plan_ = doc.at("fault_plan").as_string();
    if (!sc.fault_plan_.empty()) {
      if (sc.workload_ != WorkloadKind::Cfm &&
          sc.workload_ != WorkloadKind::Coded) {
        bad("fault_plan is only supported on the cfm and coded workloads");
      }
      // Validate the plan grammar now: a malformed plan must fail the
      // campaign before any point runs.
      (void)sim::FaultPlan::parse(sc.fault_plan_);
    }
  }
  if (doc.contains("base_seed")) {
    sc.base_seed_ = exact_u64(doc.at("base_seed"), "scenario: ", "base_seed");
  }
  if (doc.contains("retries")) {
    const auto r = exact_u64(doc.at("retries"), "scenario: ", "retries");
    if (r > 16) bad("'retries' must be <= 16 (bounded retry)");
    sc.retries_ = static_cast<std::uint32_t>(r);
  }

  if (doc.contains("params")) {
    if (!doc.at("params").is_object()) bad("'params' must be an object");
    for (const auto& [key, value] : doc.at("params").as_object()) {
      if (!key_allowed(params_contract, key)) {
        bad("unknown parameter '" + key + "' for workload '" +
            std::string(workload_name(sc.workload_)) + "'");
      }
      check_param_value(sc.workload_, key, value, "parameter");
      sc.params_[key] = value;
    }
  }
  if (doc.contains("sweep")) {
    if (!doc.at("sweep").is_object()) bad("'sweep' must be an object");
    for (const auto& [key, values] : doc.at("sweep").as_object()) {
      if (!key_allowed(params_contract, key)) {
        bad("unknown axis '" + key + "' for workload '" +
            std::string(workload_name(sc.workload_)) + "'");
      }
      if (sc.params_.contains(key)) {
        bad("duplicate axis '" + key + "': given both as a fixed "
            "parameter and a sweep axis");
      }
      if (!values.is_array() || values.size() == 0) {
        bad("axis '" + key + "' must be a non-empty array");
      }
      for (const auto& v : values.as_array()) {
        check_param_value(sc.workload_, key, v, "axis");
      }
      sc.axes_.emplace_back(key, values.as_array());
    }
  }
  // Every required parameter must come from somewhere.
  for (const auto& key : params_contract.required) {
    const bool swept =
        std::any_of(sc.axes_.begin(), sc.axes_.end(),
                    [&](const auto& axis) { return axis.first == key; });
    if (!swept && !sc.params_.contains(key)) {
      bad("missing required parameter '" + key + "' for workload '" +
          std::string(workload_name(sc.workload_)) + "'");
    }
  }
  return sc;
}

Scenario Scenario::parse_text(const std::string& text) {
  return parse(Json::parse(text));
}

Scenario Scenario::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) bad("cannot read scenario file '" + path + "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_text(buf.str());
}

std::size_t Scenario::grid_size() const noexcept {
  std::size_t n = 1;
  for (const auto& [key, values] : axes_) {
    (void)key;
    n *= values.size();
  }
  return n;
}

std::vector<PointSpec> Scenario::expand() const {
  std::vector<PointSpec> points;
  points.reserve(grid_size());
  std::vector<std::size_t> odometer(axes_.size(), 0);
  while (true) {
    PointSpec point;
    point.workload = workload_;
    point.audit = audit_;
    point.fault_plan = fault_plan_;
    point.base_seed = base_seed_;
    point.params = params_;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      point.params[axes_[a].first] = axes_[a].second[odometer[a]];
    }
    validate_point(point);
    points.push_back(std::move(point));
    // Odometer: last axis fastest, each axis's values in file order.
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < axes_[a].second.size()) break;
      odometer[a] = 0;
      if (a == 0) return points;
    }
    if (axes_.empty()) return points;
  }
}

void Scenario::validate_point(const PointSpec& point) const {
  const auto where = [&](const std::string& msg) {
    bad("point {" + point_desc(point.params) + "}: " + msg);
  };
  // Required integer parameters go through the accessors the runner
  // uses, so a fractional, negative or out-of-range value fails the
  // expand instead of running truncated (optional ones fail the point
  // when the runner reads them).
  const auto u64 = [&](const char* key) {
    std::uint64_t v = 0;
    try {
      v = point.param_u64(key);
    } catch (const std::invalid_argument& e) {
      where(e.what());
    }
    return v;
  };
  const auto u32 = [&](const char* key) {
    std::uint32_t v = 0;
    try {
      v = point.param_u32(key);
    } catch (const std::invalid_argument& e) {
      where(e.what());
    }
    return v;
  };
  const auto positive = [&](const char* key, const auto& read) {
    const auto v = read(key);
    if (v == 0) where(std::string("'") + key + "' must be positive");
    return v;
  };
  const auto unit_interval = [&](const char* key) {
    const double v = point.params.at(key).as_double();
    if (v < 0.0 || v > 1.0) {
      where(std::string("'") + key + "' must lie in [0, 1]");
    }
  };
  switch (workload_) {
    case WorkloadKind::Cfm: {
      const std::uint64_t n = positive("n", u32);
      const std::uint64_t c = positive("c", u32);
      positive("cycles", u64);
      unit_interval("rate");
      const std::uint64_t banks = c * n;  // two 32-bit factors: no overflow
      if (point.params.contains("b")) {
        const auto b = u32("b");
        if (b != banks) {
          where("not conflict-free: b=" + std::to_string(b) +
                " but conflict freedom requires b = c*n = " +
                std::to_string(banks));
        }
      }
      if (!point.fault_plan.empty()) {
        // The backend is known here, so a fault aimed at hardware the
        // machine lacks fails the expand instead of running inert.
        // Spares live above the logical index space and are not fault
        // targets (CfmMemory scans faults over [0, b) only).
        if (banks > std::numeric_limits<std::uint32_t>::max()) {
          where("c*n = " + std::to_string(banks) + " banks is out of range");
        }
        try {
          sim::FaultPlan::parse(point.fault_plan)
              .validate_single_module(static_cast<std::uint32_t>(banks),
                                      "cfm memory (b = c*n logical banks)");
        } catch (const std::invalid_argument& e) {
          where(e.what());
        }
      }
      break;
    }
    case WorkloadKind::Conventional:
      positive("n", u32);
      positive("m", u32);
      positive("beta", u32);
      positive("cycles", u64);
      unit_interval("rate");
      break;
    case WorkloadKind::PartialCfm:
      positive("n", u32);
      positive("m", u32);
      positive("beta", u32);
      positive("cycles", u64);
      unit_interval("rate");
      unit_interval("locality");
      break;
    case WorkloadKind::TraceReplay:
      positive("n", u32);
      positive("c", u32);
      positive("blocks", u64);
      positive("accesses", u64);
      positive("span", u64);
      unit_interval("write_fraction");
      break;
    case WorkloadKind::Lock: {
      positive("contenders", u32);
      u32("hold");
      positive("cycles", u64);
      const auto& variant = point.params.at("variant").as_string();
      if (variant != "cfm" && variant != "cached" && variant != "snoopy") {
        where("unknown lock variant '" + variant + "'");
      }
      break;
    }
    case WorkloadKind::Tradeoff: {
      const auto l = positive("block_bits", u32);
      const auto b = positive("b", u32);
      const auto c = positive("c", u32);
      if (l % b != 0) where("'b' must divide block_bits (w = l/b)");
      if (b % c != 0 || b / c == 0) {
        where("'b' must be a positive multiple of 'c' (n = b/c)");
      }
      break;
    }
    case WorkloadKind::Coded: {
      positive("n", u32);
      positive("c", u32);
      positive("cycles", u64);
      const auto data_banks = positive("data_banks", u32);
      const auto stripe_width = positive("stripe_width", u32);
      unit_interval("rate");
      if (point.params.contains("write_fraction")) {
        unit_interval("write_fraction");
      }
      // The code itself is the authority on realizability: stripe_width
      // must divide data_banks and code_rate must land on an integer
      // parity count for that width.
      mem::coded::CodeDescriptor descriptor;
      try {
        descriptor = mem::coded::CodeDescriptor::from_rate(
            data_banks, stripe_width, point.params.at("code_rate").as_double(),
            mem::coded::parity_policy_from_name(
                point.params.at("parity_policy").as_string()));
      } catch (const std::invalid_argument& e) {
        where(e.what());
      }
      if (!point.fault_plan.empty()) {
        // Banks provisioned ≠ banks required: the fault-target space is
        // the descriptor's data + parity banks, not c*n.
        try {
          sim::FaultPlan::parse(point.fault_plan)
              .validate_single_module(descriptor.total_banks(),
                                      "coded memory (data + parity banks)");
        } catch (const std::invalid_argument& e) {
          where(e.what());
        }
      }
      break;
    }
  }
}

sim::Json Scenario::to_json() const {
  Json doc = Json::object();
  doc["name"] = name_;
  doc["workload"] = std::string(workload_name(workload_));
  doc["audit"] = audit_;
  doc["fault_plan"] = fault_plan_;
  doc["base_seed"] = base_seed_;
  doc["retries"] = retries_;
  doc["params"] = params_;
  Json sweep = Json::object();
  for (const auto& [key, values] : axes_) {
    sweep[key] = Json::array(values);
  }
  doc["sweep"] = std::move(sweep);
  return doc;
}

}  // namespace cfm::campaign
