#include "sim/audit.hpp"

#include <string>

#include "sim/report.hpp"

namespace cfm::sim {

ConflictAuditor::ScopeId ConflictAuditor::add_scope(
    std::string name, AuditScopeKind kind, std::uint32_t banks,
    std::uint32_t bank_cycle, std::uint32_t beta, std::uint32_t fanout_limit) {
  Scope s;
  // Scope names key the JSON export; disambiguate duplicates up front.
  std::size_t clashes = 0;
  for (const auto& other : scopes_) {
    if (other.name == name ||
        other.name.rfind(name + "#", 0) == 0) {
      ++clashes;
    }
  }
  if (clashes > 0) name += "#" + std::to_string(clashes + 1);
  s.name = std::move(name);
  s.kind = kind;
  s.banks = banks;
  s.bank_cycle = bank_cycle == 0 ? 1 : bank_cycle;
  s.beta = beta;
  s.fanout_limit = fanout_limit;
  s.busy_until.assign(banks, 0);
  scopes_.push_back(std::move(s));
  return static_cast<ScopeId>(scopes_.size() - 1);
}

void ConflictAuditor::flag(Scope& s, ScopeId id, Cycle now,
                           std::string_view kind, std::string detail) {
  s.issues.inc(s.issues.intern(kind));
  if (s.samples.size() < kMaxSamples) {
    s.samples.push_back(Violation{now, id, std::string(kind), std::move(detail)});
  }
}

void ConflictAuditor::on_bank_access(ScopeId scope, Cycle now, BankId bank) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.bank_accesses);
  if (bank >= s.busy_until.size()) {
    // Spare banks provisioned for degraded mode may join after the scope
    // was registered; they still get the overlap check.
    s.busy_until.resize(bank + 1, 0);
  }
  auto& busy = s.busy_until[bank];
  if (now < busy) {
    flag(s, scope, now, "bank_conflict",
         "bank " + std::to_string(bank) + " busy until " +
             std::to_string(busy) + " hit again at " + std::to_string(now));
  }
  busy = now + s.bank_cycle;
}

void ConflictAuditor::on_scheduled_access(ScopeId scope, Cycle now,
                                          ProcessorId proc, BankId bank) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.scheduled_accesses);
  const auto expected = static_cast<BankId>(
      (now + static_cast<Cycle>(s.bank_cycle) * proc) % s.banks);
  if (bank != expected) {
    flag(s, scope, now, "schedule_mismatch",
         "proc " + std::to_string(proc) + " touched bank " +
             std::to_string(bank) + ", AT-space demands " +
             std::to_string(expected));
  }
}

void ConflictAuditor::on_block_complete(ScopeId scope, Cycle final_tour_start,
                                        Cycle completed) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.blocks_completed);
  if (s.beta == 0) return;
  if (completed - final_tour_start != s.beta) {
    flag(s, scope, completed, "beta_violation",
         "tour started " + std::to_string(final_tour_start) +
             " completed " + std::to_string(completed) + ", beta is " +
             std::to_string(s.beta));
  }
}

void ConflictAuditor::on_omega_slot(ScopeId scope, Cycle slot,
                                    std::span<const std::uint32_t> outputs) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.omega_slots);
  const auto n = outputs.size();
  if (s.perm_seen.size() != n) s.perm_seen.assign(n, 0);
  ++s.perm_stamp;
  const auto stamp = static_cast<std::uint32_t>(s.perm_stamp);
  bool permutation = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto out = outputs[i];
    if (out >= n || s.perm_seen[out] == stamp) {
      permutation = false;
      break;
    }
    s.perm_seen[out] = stamp;
  }
  if (!permutation) {
    flag(s, scope, slot, "omega_not_permutation",
         "switch states at slot " + std::to_string(slot) +
             " route two inputs to one output");
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto expected = static_cast<std::uint32_t>((slot + i) % n);
    if (outputs[i] != expected) {
      flag(s, scope, slot, "omega_wrong_shift",
           "input " + std::to_string(i) + " reached " +
               std::to_string(outputs[i]) + ", sigma_t demands " +
               std::to_string(expected));
      return;
    }
  }
}

void ConflictAuditor::on_module_access(ScopeId scope, Cycle now,
                                       std::uint32_t resource,
                                       std::uint32_t hold) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.module_accesses);
  if (resource >= s.busy_until.size()) s.busy_until.resize(resource + 1, 0);
  auto& busy = s.busy_until[resource];
  if (now < busy) {
    flag(s, scope, now, "module_conflict",
         "module " + std::to_string(resource) + " busy until " +
             std::to_string(busy) + " requested at " + std::to_string(now));
    return;  // the access did not start; the holder keeps the module
  }
  busy = now + hold;
}

void ConflictAuditor::on_contention(ScopeId scope, Cycle now,
                                    std::string_view kind) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.contention_checks);
  flag(s, scope, now, kind, "");
}

void ConflictAuditor::on_phase_stall(ScopeId scope, Cycle now, Cycle cycles) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.phase_checks);
  if (cycles == 0) return;
  flag(s, scope, now, "phase_stall",
       std::to_string(cycles) + "-cycle alignment stall");
}

void ConflictAuditor::on_decode(ScopeId scope, Cycle now,
                                std::uint32_t fanout) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.decodes);
  if (s.fanout_limit != 0 && fanout > s.fanout_limit) {
    flag(s, scope, now, "decode_fanout",
         "decode touched " + std::to_string(fanout) +
             " banks, stripe width bounds it at " +
             std::to_string(s.fanout_limit));
  }
}

void ConflictAuditor::on_parity_guard(ScopeId scope, Cycle now,
                                      std::uint64_t pending) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.parity_guards);
  if (pending != 0) {
    flag(s, scope, now, "torn_parity",
         "decode through a stripe group with " + std::to_string(pending) +
             " unapplied parity delta(s)");
  }
}

void ConflictAuditor::on_injected(ScopeId scope, Cycle /*now*/,
                                  std::string_view kind) {
  auto& s = scopes_[scope];
  s.checks.inc(s.checks.injected_checks);
  s.injected.inc(s.injected.intern(kind));
}

namespace {

[[nodiscard]] std::uint64_t sum_counters(const CounterSet& set) {
  std::uint64_t total = 0;
  set.for_each([&total](const std::string&, std::uint64_t value) {
    total += value;
  });
  return total;
}

}  // namespace

std::uint64_t ConflictAuditor::violations() const {
  std::uint64_t total = 0;
  for (const auto& s : scopes_) {
    if (s.kind != AuditScopeKind::Contended) total += sum_counters(s.issues);
  }
  return total;
}

std::uint64_t ConflictAuditor::conflicts_detected() const {
  std::uint64_t total = 0;
  for (const auto& s : scopes_) {
    if (s.kind == AuditScopeKind::Contended) total += sum_counters(s.issues);
  }
  return total;
}

std::uint64_t ConflictAuditor::injected_detected() const {
  std::uint64_t total = 0;
  for (const auto& s : scopes_) total += sum_counters(s.injected);
  return total;
}

std::uint64_t ConflictAuditor::checks_performed() const {
  std::uint64_t total = 0;
  for (const auto& s : scopes_) total += sum_counters(s.checks);
  return total;
}

std::vector<ConflictAuditor::Violation> ConflictAuditor::violation_samples()
    const {
  std::vector<Violation> out;
  for (const auto& s : scopes_) {
    out.insert(out.end(), s.samples.begin(), s.samples.end());
  }
  return out;
}

Json ConflictAuditor::to_json() const {
  Json doc = Json::object();
  doc["violations"] = violations();
  doc["conflicts_detected"] = conflicts_detected();
  doc["injected"] = injected_detected();
  doc["checks"] = checks_performed();
  Json scopes = Json::object();
  for (const auto& s : scopes_) {
    Json sj = Json::object();
    sj["kind"] = s.kind == AuditScopeKind::ConflictFree ? "conflict_free"
                 : s.kind == AuditScopeKind::Contended  ? "contended"
                                                        : "coded_relaxed";
    sj["banks"] = s.banks;
    sj["bank_cycle"] = s.bank_cycle;
    sj["beta"] = s.beta;
    if (s.fanout_limit != 0) sj["fanout_limit"] = s.fanout_limit;
    sj["checks"] = sim::to_json(s.checks);
    sj["issues"] = sim::to_json(s.issues);
    sj["injected"] = sim::to_json(s.injected);
    scopes[s.name] = std::move(sj);
  }
  doc["scopes"] = std::move(scopes);
  Json samples = Json::array();
  for (const auto& v : violation_samples()) {
    Json vj = Json::object();
    vj["cycle"] = v.cycle;
    vj["scope"] = v.scope;
    vj["kind"] = v.kind;
    vj["detail"] = v.detail;
    samples.push_back(std::move(vj));
  }
  doc["samples"] = std::move(samples);
  return doc;
}

void ConflictAuditor::to_report(Report& report) const {
  report.add_section("audit", to_json());
}

}  // namespace cfm::sim
