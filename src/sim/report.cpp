#include "sim/report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace cfm::sim {
namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Shortest round-trip double formatting (std::to_chars): deterministic
// across platforms, unlike printf %g with locale/precision variance.
void write_double(std::ostream& os, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; emit null, the conventional fallback.
    os << "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  os.write(buf, res.ptr - buf);
  // Ensure the token stays a double on re-parse ("1" -> "1e0" would be
  // wrong kind): append .0 when there's no '.', 'e', or 'E'.
  const std::string_view sv(buf, static_cast<std::size_t>(res.ptr - buf));
  if (sv.find_first_of(".eE") == std::string_view::npos) os << ".0";
}

void write_indent(std::ostream& os, int indent, int depth) {
  if (indent < 0) return;
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  /// Depth of an array/object opened inside one at `depth`.  Bounded, so
  /// a hostile file cannot exhaust the stack.
  std::size_t nested(std::size_t depth) const {
    if (depth == Json::kMaxParseDepth) {
      fail("nesting depth " + std::to_string(depth + 1) +
           " exceeds the limit of " + std::to_string(Json::kMaxParseDepth));
    }
    return depth + 1;
  }

  /// `depth` counts the arrays/objects enclosing this value.
  Json value(std::size_t depth) {
    skip_ws();
    switch (peek()) {
      case '{': return object(nested(depth));
      case '[': return array(nested(depth));
      case '"': return Json(string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json(nullptr);
      default: return number();
    }
  }

  Json object(std::size_t depth) {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return out; }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out[key] = value(depth);
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json array(std::size_t depth) {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return out; }
    for (;;) {
      out.push_back(value(depth));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Reports only ever emit \u00xx for control characters; encode
          // the general case as UTF-8 anyway.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    bool negative = false;
    if (peek() == '-') { negative = true; ++pos_; }
    bool is_double = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') { ++pos_; continue; }
      if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ == start + (negative ? 1u : 0u)) fail("bad number");
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    if (!is_double) {
      if (negative) {
        std::int64_t v = 0;
        if (std::from_chars(first, last, v).ec == std::errc{}) return Json(v);
      } else {
        std::uint64_t v = 0;
        if (std::from_chars(first, last, v).ec == std::errc{}) return Json(v);
      }
      // Integer overflow: fall through to double.
    }
    double d = 0.0;
    const auto res = std::from_chars(first, last, d);
    if (res.ec != std::errc{} || res.ptr != last) fail("bad number");
    return Json(d);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---- Json -------------------------------------------------------------

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::array(Array items) {
  Json j;
  j.kind_ = Kind::Array;
  j.array_ = std::move(items);
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

Json Json::object(
    std::initializer_list<std::pair<const std::string, Json>> members) {
  Json j;
  j.kind_ = Kind::Object;
  j.object_ = Object(members);
  return j;
}

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) throw std::logic_error("Json: not a bool");
  return bool_;
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::Int: return static_cast<double>(int_);
    case Kind::Uint: return static_cast<double>(uint_);
    case Kind::Double: return double_;
    default: throw std::logic_error("Json: not a number");
  }
}

std::int64_t Json::as_int() const {
  switch (kind_) {
    case Kind::Int: return int_;
    case Kind::Uint: return static_cast<std::int64_t>(uint_);
    case Kind::Double: return static_cast<std::int64_t>(double_);
    default: throw std::logic_error("Json: not a number");
  }
}

std::uint64_t Json::as_uint() const {
  switch (kind_) {
    case Kind::Int: return static_cast<std::uint64_t>(int_);
    case Kind::Uint: return uint_;
    case Kind::Double: return static_cast<std::uint64_t>(double_);
    default: throw std::logic_error("Json: not a number");
  }
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) throw std::logic_error("Json: not a string");
  return string_;
}

const Json::Array& Json::as_array() const {
  if (kind_ != Kind::Array) throw std::logic_error("Json: not an array");
  return array_;
}

const Json::Object& Json::as_object() const {
  if (kind_ != Kind::Object) throw std::logic_error("Json: not an object");
  return object_;
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) throw std::logic_error("Json: not an object");
  return object_[key];
}

const Json& Json::at(const std::string& key) const {
  return as_object().at(key);
}

bool Json::contains(const std::string& key) const {
  return kind_ == Kind::Object && object_.count(key) != 0;
}

void Json::push_back(Json v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) throw std::logic_error("Json: not an array");
  array_.push_back(std::move(v));
}

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::Array: return array_.size();
    case Kind::Object: return object_.size();
    default: throw std::logic_error("Json: no size");
  }
}

void Json::write(std::ostream& os, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null: os << "null"; break;
    case Kind::Bool: os << (bool_ ? "true" : "false"); break;
    case Kind::Int: os << int_; break;
    case Kind::Uint: os << uint_; break;
    case Kind::Double: write_double(os, double_); break;
    case Kind::String: write_escaped(os, string_); break;
    case Kind::Array: {
      if (array_.empty()) { os << "[]"; break; }
      os << '[';
      bool first = true;
      for (const auto& v : array_) {
        if (!first) os << ',';
        first = false;
        write_indent(os, indent, depth + 1);
        v.write(os, indent, depth + 1);
      }
      write_indent(os, indent, depth);
      os << ']';
      break;
    }
    case Kind::Object: {
      if (object_.empty()) { os << "{}"; break; }
      os << '{';
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) os << ',';
        first = false;
        write_indent(os, indent, depth + 1);
        write_escaped(os, key);
        os << (indent < 0 ? ":" : ": ");
        v.write(os, indent, depth + 1);
      }
      write_indent(os, indent, depth);
      os << '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  write(os, indent, 0);
  return os.str();
}

void Json::dump_to(std::ostream& os, int indent) const {
  write(os, indent, 0);
}

Json Json::parse(const std::string& text) { return Parser(text).run(); }

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) {
    // Numbers compare across integer kinds when values agree exactly.
    if (is_number() && other.is_number()) {
      if (kind_ == Kind::Double || other.kind_ == Kind::Double) {
        return as_double() == other.as_double();
      }
      if (kind_ == Kind::Int && int_ < 0) return false;
      if (other.kind_ == Kind::Int && other.int_ < 0) return false;
      return as_uint() == other.as_uint();
    }
    return false;
  }
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == other.bool_;
    case Kind::Int: return int_ == other.int_;
    case Kind::Uint: return uint_ == other.uint_;
    case Kind::Double: return double_ == other.double_;
    case Kind::String: return string_ == other.string_;
    case Kind::Array: return array_ == other.array_;
    case Kind::Object: return object_ == other.object_;
  }
  return false;
}

// ---- stats serializers -----------------------------------------------

Json to_json(const CounterSet& counters) {
  Json out = Json::object();
  counters.for_each([&out](const std::string& name, std::uint64_t value) {
    out[name] = value;
  });
  return out;
}

Json to_json(const RunningStat& stat) {
  return Json::object({{"count", Json(stat.count())},
                       {"mean", Json(stat.mean())},
                       {"min", Json(stat.min())},
                       {"max", Json(stat.max())},
                       {"stddev", Json(stat.stddev())},
                       {"sum", Json(stat.sum())}});
}

namespace {

std::string quantile_key(double q) {
  // 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p99.9".
  const double pct = q * 100.0;
  char buf[16];
  if (pct == std::floor(pct)) {
    std::snprintf(buf, sizeof buf, "p%d", static_cast<int>(pct));
  } else {
    std::snprintf(buf, sizeof buf, "p%g", pct);
  }
  return buf;
}

}  // namespace

Json to_json(const Histogram& hist, const std::vector<double>& quantiles) {
  Json buckets = Json::array();
  for (std::size_t i = 0; i < hist.bucket_count(); ++i) {
    buckets.push_back(hist.bucket(i));
  }
  Json qs = Json::object();
  for (const double q : quantiles) qs[quantile_key(q)] = hist.quantile(q);
  return Json::object({{"bucket_width", Json(hist.bucket_width())},
                       {"buckets", std::move(buckets)},
                       {"overflow", Json(hist.overflow())},
                       {"total", Json(hist.total())},
                       {"quantiles", std::move(qs)}});
}

StatSummary stat_summary_from_json(const Json& j) {
  StatSummary out;
  out.count = j.at("count").as_uint();
  out.mean = j.at("mean").as_double();
  out.min = j.at("min").as_double();
  out.max = j.at("max").as_double();
  out.stddev = j.at("stddev").as_double();
  out.sum = j.at("sum").as_double();
  return out;
}

std::uint64_t exact_u64(const Json& v, const char* prefix,
                        const std::string& key) {
  switch (v.kind()) {
    case Json::Kind::Uint:
      return v.as_uint();
    case Json::Kind::Int:
      if (v.as_int() >= 0) return v.as_uint();
      break;
    case Json::Kind::Double: {
      // 2^64 is the first double past the uint64 range.
      const double d = v.as_double();
      if (d >= 0.0 && d < 18446744073709551616.0 && std::floor(d) == d) {
        return static_cast<std::uint64_t>(d);
      }
      break;
    }
    default:
      break;
  }
  throw std::invalid_argument(std::string(prefix) + "'" + key + "' = " +
                              v.dump() + " is not a non-negative integer");
}

CounterSet counters_from_json(const Json& j) {
  CounterSet out;
  add_counters_json(out, j);
  return out;
}

void add_counters_json(CounterSet& into, const Json& j) {
  for (const auto& [name, value] : j.as_object()) {
    into.inc(into.intern(name), exact_u64(value, "counter ", name));
  }
}

Json to_json(const StatSummary& s) {
  return Json::object({{"count", Json(s.count)},
                       {"mean", Json(s.mean)},
                       {"min", Json(s.min)},
                       {"max", Json(s.max)},
                       {"stddev", Json(s.stddev)},
                       {"sum", Json(s.sum)}});
}

StatSummary merge_stat_summaries(const StatSummary& a, const StatSummary& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  StatSummary out;
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  const double n = na + nb;
  const double delta = b.mean - a.mean;
  out.count = a.count + b.count;
  out.sum = a.sum + b.sum;
  out.mean = a.mean + delta * nb / n;
  out.min = std::min(a.min, b.min);
  out.max = std::max(a.max, b.max);
  // Chan's parallel variance on the *sample* variance RunningStat reports
  // (m2 = stddev^2 * (count - 1)).
  const double m2a = a.stddev * a.stddev * (na - 1.0);
  const double m2b = b.stddev * b.stddev * (nb - 1.0);
  const double m2 = m2a + m2b + delta * delta * na * nb / n;
  out.stddev = out.count > 1 ? std::sqrt(m2 / (n - 1.0)) : 0.0;
  return out;
}

std::uint64_t canonical_hash(const Json& value) {
  const std::string text = value.dump();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::string canonical_hash_hex(const Json& value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::uint64_t h = canonical_hash(value);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[h & 0xf];
    h >>= 4;
  }
  return out;
}

// ---- Report -----------------------------------------------------------

Report::Report(std::string name) : name_(std::move(name)) {}

void Report::set_param(const std::string& key, Json value) {
  params_[key] = std::move(value);
}

void Report::add_scalar(const std::string& key, Json value) {
  metrics_[key] = std::move(value);
}

void Report::add_counters(const std::string& name, const CounterSet& counters) {
  counters_[name] = cfm::sim::to_json(counters);
}

void Report::add_stat(const std::string& name, const RunningStat& stat) {
  stats_[name] = cfm::sim::to_json(stat);
}

void Report::add_histogram(const std::string& name, const Histogram& hist,
                           const std::vector<double>& quantiles) {
  histograms_[name] = cfm::sim::to_json(hist, quantiles);
}

void Report::add_row(const std::string& table, Json row) {
  tables_[table].push_back(std::move(row));
}

void Report::add_section(const std::string& key, Json value) {
  sections_[key] = std::move(value);
}

Json Report::to_json() const {
  Json out = Json::object();
  out["schema"] = kSchema;
  out["name"] = name_;
  out["params"] = params_;
  out["metrics"] = metrics_;
  out["counters"] = counters_;
  out["stats"] = stats_;
  out["histograms"] = histograms_;
  out["tables"] = tables_;
  for (const auto& [key, value] : sections_.as_object()) out[key] = value;
  return out;
}

void Report::write(std::ostream& os) const {
  to_json().dump_to(os, 2);
  os << '\n';
}

bool Report::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return static_cast<bool>(os);
}

// ---- ChromeTrace ------------------------------------------------------

void ChromeTrace::push(Json event) {
  std::lock_guard<std::mutex> lk(mx_);
  events_.push_back(std::move(event));
}

void ChromeTrace::instant(const std::string& name, const std::string& category,
                          double ts_us, int tid) {
  push(Json::object({{"name", Json(name)},
                     {"cat", Json(category)},
                     {"ph", Json("i")},
                     {"s", Json("t")},
                     {"ts", Json(ts_us)},
                     {"pid", Json(0)},
                     {"tid", Json(tid)}}));
}

void ChromeTrace::complete(const std::string& name, const std::string& category,
                           double ts_us, double dur_us, int tid) {
  push(Json::object({{"name", Json(name)},
                     {"cat", Json(category)},
                     {"ph", Json("X")},
                     {"ts", Json(ts_us)},
                     {"dur", Json(dur_us)},
                     {"pid", Json(0)},
                     {"tid", Json(tid)}}));
}

void ChromeTrace::counter(const std::string& name, double ts_us, double value,
                          int tid) {
  Json args = Json::object();
  args["value"] = value;
  push(Json::object({{"name", Json(name)},
                     {"ph", Json("C")},
                     {"ts", Json(ts_us)},
                     {"pid", Json(0)},
                     {"tid", Json(tid)},
                     {"args", std::move(args)}}));
}

void ChromeTrace::flow_begin(const std::string& name,
                             const std::string& category, double ts_us,
                             std::uint64_t id, int tid) {
  push(Json::object({{"name", Json(name)},
                     {"cat", Json(category)},
                     {"ph", Json("s")},
                     {"id", Json(id)},
                     {"ts", Json(ts_us)},
                     {"pid", Json(0)},
                     {"tid", Json(tid)}}));
}

void ChromeTrace::flow_end(const std::string& name,
                           const std::string& category, double ts_us,
                           std::uint64_t id, int tid) {
  push(Json::object({{"name", Json(name)},
                     {"cat", Json(category)},
                     {"ph", Json("f")},
                     {"bp", Json("e")},
                     {"id", Json(id)},
                     {"ts", Json(ts_us)},
                     {"pid", Json(0)},
                     {"tid", Json(tid)}}));
}

void ChromeTrace::thread_name(int tid, const std::string& name) {
  Json args = Json::object();
  args["name"] = name;
  push(Json::object({{"name", Json("thread_name")},
                     {"ph", Json("M")},
                     {"pid", Json(0)},
                     {"tid", Json(tid)},
                     {"args", std::move(args)}}));
}

std::size_t ChromeTrace::event_count() const {
  std::lock_guard<std::mutex> lk(mx_);
  return events_.size();
}

Json ChromeTrace::to_json() const {
  std::lock_guard<std::mutex> lk(mx_);
  return Json::array(events_);
}

void ChromeTrace::write(std::ostream& os) const {
  to_json().dump_to(os, 1);
  os << '\n';
}

bool ChromeTrace::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return static_cast<bool>(os);
}

}  // namespace cfm::sim
