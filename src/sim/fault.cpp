#include "sim/fault.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cfm::sim {

std::string_view fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::BankDead: return "bank_dead";
    case FaultKind::ModuleBrownout: return "brownout";
    case FaultKind::OmegaLink: return "omega_link";
    case FaultKind::MessageDrop: return "drop";
  }
  return "?";
}

void FaultPlan::add(const FaultSpec& spec) {
  if (spec.probability < 0.0 || spec.probability > 1.0) {
    throw std::invalid_argument("fault probability must be within [0, 1]");
  }
  if (spec.kind == FaultKind::MessageDrop && spec.probability == 0.0) {
    throw std::invalid_argument("message-drop fault with probability 0 is a no-op");
  }
  specs_.push_back(spec);
}

namespace {

[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      std::string_view what) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    throw std::invalid_argument("fault plan: bad " + std::string(what) +
                                " '" + std::string(text) + "'");
  }
  return value;
}

[[nodiscard]] std::uint32_t parse_u32(std::string_view text,
                                      std::string_view key) {
  const auto value = parse_u64(text, key);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "fault plan: " + std::string(key) + " " + std::to_string(value) +
        " is out of range (max " +
        std::to_string(std::numeric_limits<std::uint32_t>::max()) + ")");
  }
  return static_cast<std::uint32_t>(value);
}

[[nodiscard]] double parse_prob(std::string_view text) {
  char* end = nullptr;
  const std::string copy(text);
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    throw std::invalid_argument("fault plan: bad probability '" + copy + "'");
  }
  return value;
}

[[nodiscard]] FaultKind parse_kind(std::string_view text) {
  if (text == "bank_dead") return FaultKind::BankDead;
  if (text == "brownout") return FaultKind::ModuleBrownout;
  if (text == "omega_link") return FaultKind::OmegaLink;
  if (text == "drop") return FaultKind::MessageDrop;
  throw std::invalid_argument("fault plan: unknown fault kind '" +
                              std::string(text) + "'");
}

[[nodiscard]] FaultSpec parse_entry(std::string_view entry) {
  FaultSpec spec;
  const auto at_pos = entry.find('@');
  if (at_pos == std::string_view::npos) {
    throw std::invalid_argument("fault plan: entry '" + std::string(entry) +
                                "' is missing '@<start-cycle>'");
  }
  spec.kind = parse_kind(entry.substr(0, at_pos));
  auto rest = entry.substr(at_pos + 1);
  std::string_view params;
  if (const auto colon = rest.find(':'); colon != std::string_view::npos) {
    params = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  if (const auto plus = rest.find('+'); plus != std::string_view::npos) {
    spec.at = parse_u64(rest.substr(0, plus), "start cycle");
    spec.duration = parse_u64(rest.substr(plus + 1), "duration");
  } else {
    spec.at = parse_u64(rest, "start cycle");
  }
  while (!params.empty()) {
    auto kv = params;
    if (const auto comma = params.find(','); comma != std::string_view::npos) {
      kv = params.substr(0, comma);
      params = params.substr(comma + 1);
    } else {
      params = {};
    }
    const auto eq = kv.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("fault plan: parameter '" + std::string(kv) +
                                  "' is not key=value");
    }
    const auto key = kv.substr(0, eq);
    const auto value = kv.substr(eq + 1);
    if (key == "module") {
      spec.module = parse_u32(value, "module");
    } else if (key == "bank") {
      spec.bank = parse_u32(value, "bank");
    } else if (key == "stage") {
      spec.stage = parse_u32(value, "stage");
    } else if (key == "link") {
      spec.link = parse_u32(value, "link");
    } else if (key == "prob") {
      spec.probability = parse_prob(value);
    } else {
      throw std::invalid_argument("fault plan: unknown parameter '" +
                                  std::string(key) + "'");
    }
  }
  return spec;
}

/// The entry grammar parse() reads.
std::ostream& operator<<(std::ostream& os, const FaultSpec& s) {
  os << fault_kind_name(s.kind) << '@' << s.at;
  if (s.duration != 0) os << '+' << s.duration;
  switch (s.kind) {
    case FaultKind::BankDead:
      return os << ":module=" << s.module << ",bank=" << s.bank;
    case FaultKind::ModuleBrownout:
      return os << ":module=" << s.module;
    case FaultKind::OmegaLink:
      return os << ":stage=" << s.stage << ",link=" << s.link;
    case FaultKind::MessageDrop:
      return os << ":prob=" << s.probability;
  }
  return os;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  while (!text.empty()) {
    auto entry = text;
    if (const auto semi = text.find(';'); semi != std::string_view::npos) {
      entry = text.substr(0, semi);
      text = text.substr(semi + 1);
    } else {
      text = {};
    }
    if (entry.empty()) continue;
    plan.add(parse_entry(entry));
  }
  if (plan.empty()) {
    throw std::invalid_argument("fault plan: no fault entries given");
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& s : specs_) {
    if (!first) os << ';';
    first = false;
    os << s;
  }
  return os.str();
}

void FaultPlan::validate_single_module(std::uint32_t banks,
                                       std::string_view what) const {
  for (const auto& s : specs_) {
    const bool network =
        s.kind == FaultKind::OmegaLink || s.kind == FaultKind::MessageDrop;
    const bool no_bank = s.kind == FaultKind::BankDead && s.bank >= banks;
    if (!network && s.module == 0 && !no_bank) continue;
    std::ostringstream os;
    os << "fault plan: entry '" << s << "' ";
    if (network) {
      os << "faults the interconnect, but the " << what << " has no network";
    } else if (s.module != 0) {
      os << "targets module " << s.module << ", but the " << what
         << " is a single module (module 0)";
    } else {
      os << "targets bank " << s.bank << ", but the " << what
         << " provisions only " << banks << " bank(s) [0, " << banks << ")";
    }
    os << " — the fault would be silently inert";
    throw std::invalid_argument(os.str());
  }
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed) {}

bool FaultInjector::bank_dead(Cycle now, ModuleId module, BankId bank) const {
  for (const auto& s : plan_.specs()) {
    if (s.kind == FaultKind::BankDead && s.module == module &&
        s.bank == bank && s.active(now)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::module_paused(Cycle now, ModuleId module) const {
  for (const auto& s : plan_.specs()) {
    if (s.kind == FaultKind::ModuleBrownout && s.module == module &&
        s.active(now)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::any_active(Cycle now) const {
  for (const auto& s : plan_.specs()) {
    if (s.active(now)) return true;
  }
  return false;
}

std::uint32_t FaultInjector::active_count(Cycle now) const {
  std::uint32_t n = 0;
  for (const auto& s : plan_.specs()) {
    if (s.active(now)) ++n;
  }
  return n;
}

bool FaultInjector::drop_message(Cycle now) {
  counters_.inc(counters_.messages_offered);
  for (const auto& s : plan_.specs()) {
    if (s.kind != FaultKind::MessageDrop || !s.active(now)) continue;
    if (rng_.chance(s.probability)) {
      counters_.inc(counters_.messages_dropped);
      return true;
    }
  }
  return false;
}

}  // namespace cfm::sim
