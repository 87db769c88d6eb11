// Runtime conflict-freedom auditor for the *simulated* machine.
//
// The paper's headline property — at slot t processor p is wired to bank
// (t + c·p) mod b, so no two processors ever touch the same bank in the
// same cycle, and every block access costs exactly β = b + c − 1 (§3.1,
// Table 3.2) — is proved by construction and asserted by unit tests, but
// until now was never *observed* on live traffic.  ConflictAuditor turns
// the invariants into per-cycle runtime checks:
//
//   * bank occupancy     — no bank serves two overlapping word accesses
//                          (observed independently of mem::Bank's assert);
//   * AT-space schedule  — every scheduled access by processor p at slot t
//                          lands on bank (t + c·p) mod b;
//   * block access time  — a completed tour spans exactly β cycles from
//                          its final tour start;
//   * omega permutations — the synchronous omega's per-slot switch states
//                          realize the uniform shift σ_t, a conflict-free
//                          permutation (Table 3.4).
//
// The same instrument doubles as the paper's negative control: attached to
// the conventional interleaved memory, the partially conflict-free fabric,
// a buffered/circuit omega or a phase-aligned (Monarch/OMP) memory, it
// *detects and counts* the module conflicts, channel collisions, rejected
// injections and phase stalls those designs exhibit (Fig 2.1's tree
// saturation made machine-checkable).
//
// Scopes: every watched unit registers a scope up front.  A scope's
// mutable state is only ever touched from the tick domain that owns the
// unit (the same single-writer discipline as StatShard), so the fast
// path's domain-at-a-time spans see the same per-scope sequence as the
// reference schedule.  Register scopes before the run and aggregate
// after it.
//
// A unit that claims conflict freedom registers a ConflictFree scope —
// any detected contention there is a *violation* (the simulation broke
// the paper's invariant).  A baseline registers a Contended scope — the
// same detections are expected behaviour, tallied as *conflicts* for the
// negative control.  `violations()` must be zero on every CFM config;
// `conflicts_detected()` must be positive on hot-spot conventional runs.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::sim {

class Json;
class Report;

/// How a watched unit claims to behave (see file comment).  CodedRelaxed
/// is the coded-redundancy backend's contract: it does NOT claim the
/// AT-space schedule or the β bound (banks < c·n makes both impossible),
/// but it does claim the weaker machine-checkable invariant — at most one
/// access per bank per slot, every decode's fan-out bounded by the stripe
/// width, and no decode through torn parity (pending unapplied deltas).
/// Breaks of the relaxed invariant are *violations*, like ConflictFree.
enum class AuditScopeKind : std::uint8_t { ConflictFree, Contended, CodedRelaxed };

class ConflictAuditor {
 public:
  using ScopeId = std::uint32_t;

  struct Violation {
    Cycle cycle = 0;
    ScopeId scope = 0;
    std::string kind;    ///< counter name, e.g. "bank_conflict"
    std::string detail;  ///< human-readable specifics
  };

  /// Registers a watched unit.  `banks` is the resource pool the overlap
  /// checks index (banks of a module, modules of a conventional memory,
  /// channels of a partial fabric), `bank_cycle` the hold time of one
  /// access, `beta` the nominal block access time (0 = not checked).
  /// Not thread-safe: register every scope before the run starts.
  /// `fanout_limit` only matters to CodedRelaxed scopes: the largest
  /// number of banks one decode may touch (the stripe width); 0 disables
  /// the fan-out check.
  ScopeId add_scope(std::string name, AuditScopeKind kind, std::uint32_t banks,
                    std::uint32_t bank_cycle, std::uint32_t beta,
                    std::uint32_t fanout_limit = 0);

  // ---- hot-path observations (single writer per scope) ----------------

  /// A word access touched `bank` at `now`, holding it for the scope's
  /// bank_cycle.  Overlap with a previous hold => "bank_conflict".
  void on_bank_access(ScopeId scope, Cycle now, BankId bank);

  /// Processor `proc`'s address path used `bank` at slot `now`.  The
  /// AT-space demands bank == (now + c·proc) mod b => else
  /// "schedule_mismatch".
  void on_scheduled_access(ScopeId scope, Cycle now, ProcessorId proc,
                           BankId bank);

  /// A block tour whose final (restart-free) pass started at
  /// `final_tour_start` completed at `completed`.  The CFM property
  /// demands completed - final_tour_start == beta => else
  /// "beta_violation".  Swaps report their write tour.
  void on_block_complete(ScopeId scope, Cycle final_tour_start,
                         Cycle completed);

  /// The synchronous omega's realized outputs at `slot` (outputs[i] =
  /// output port reached from input i).  Checks that they form a
  /// permutation ("omega_not_permutation") and equal the uniform shift
  /// σ_slot(i) = (slot + i) mod N ("omega_wrong_shift").
  void on_omega_slot(ScopeId scope, Cycle slot,
                     std::span<const std::uint32_t> outputs);

  /// A block access attempted to start on `resource` at `now`, holding it
  /// for `hold` cycles on success.  Overlap => "module_conflict" — the
  /// conventional-memory contention the paper's Fig 2.1 quantifies.
  void on_module_access(ScopeId scope, Cycle now, std::uint32_t resource,
                        std::uint32_t hold);

  /// Model-reported contention (rejected injection, circuit abort, bus
  /// wait...).  `kind` must be a stable literal; it becomes a counter.
  void on_contention(ScopeId scope, Cycle now, std::string_view kind);

  /// A phase-alignment stall of `cycles` before an access could start
  /// (Monarch/OMP, §2.1.2–2.1.3).  Counted once per stalled access.
  void on_phase_stall(ScopeId scope, Cycle now, Cycle cycles);

  /// A coded-memory decode reconstructed one word by touching `fanout`
  /// banks (stripe survivors + parity).  The CodedRelaxed contract bounds
  /// fanout by the scope's `fanout_limit` => else "decode_fanout".
  void on_decode(ScopeId scope, Cycle now, std::uint32_t fanout);

  /// Torn-parity guard, probed at every decode with the number of parity
  /// deltas still pending against the stripe group being decoded.  A
  /// decode through stale parity would reconstruct garbage: pending > 0
  /// => "torn_parity".
  void on_parity_guard(ScopeId scope, Cycle now, std::uint64_t pending);

  /// A deliberately injected fault (bank failure, brownout, dropped
  /// message, faulted omega link) was observed by the scope's unit.
  /// Tallied separately from genuine invariant violations: a degraded
  /// machine that recovers cleanly must still report violations() == 0
  /// while its injected event counts explain the recovery work.  `kind`
  /// must be a stable literal; it becomes a counter.
  void on_injected(ScopeId scope, Cycle now, std::string_view kind);

  // ---- aggregation (call only while no tick is in flight) --------------

  /// Invariant breaks summed over ConflictFree and CodedRelaxed scopes
  /// (each kind's own claimed invariant).  Zero on every CFM
  /// configuration, by the paper's construction.
  [[nodiscard]] std::uint64_t violations() const;
  /// Contention events summed over Contended scopes.  Positive on the
  /// conventional / phase-aligned negative controls.
  [[nodiscard]] std::uint64_t conflicts_detected() const;
  /// Injected-fault observations summed over all scopes (on_injected) —
  /// never counted as violations or conflicts.
  [[nodiscard]] std::uint64_t injected_detected() const;
  /// Total individual checks performed (for "audited N accesses" claims).
  [[nodiscard]] std::uint64_t checks_performed() const;

  /// First `kMaxSamples` violations per scope, for diagnostics.
  [[nodiscard]] std::vector<Violation> violation_samples() const;

  /// The "audit" report section:
  ///   {"violations": N, "conflicts_detected": N, "checks": N,
  ///    "scopes": {"<name>": {"kind": "...", "checks": {...},
  ///               "issues": {...}}},
  ///    "samples": [{"cycle","scope","kind","detail"}...]}
  [[nodiscard]] Json to_json() const;
  /// Adds the section under key "audit".
  void to_report(Report& report) const;

  static constexpr std::size_t kMaxSamples = 16;

 private:
  struct Scope {
    std::string name;
    AuditScopeKind kind = AuditScopeKind::ConflictFree;
    std::uint32_t banks = 0;
    std::uint32_t bank_cycle = 1;
    std::uint32_t beta = 0;
    std::uint32_t fanout_limit = 0;  ///< CodedRelaxed decode bound (0 = off)
    std::vector<Cycle> busy_until;      ///< per bank/module/channel
    std::vector<std::uint32_t> perm_seen;  ///< omega scratch, slot-stamped
    std::uint64_t perm_stamp = 0;
    /// Check counters, interned at registration.  Issue and injected
    /// kinds are caller literals, interned on first use.
    struct Checks : CounterSet {
      CounterId bank_accesses = intern("bank_accesses");
      CounterId scheduled_accesses = intern("scheduled_accesses");
      CounterId blocks_completed = intern("blocks_completed");
      CounterId omega_slots = intern("omega_slots");
      CounterId module_accesses = intern("module_accesses");
      CounterId contention_checks = intern("contention_checks");
      CounterId phase_checks = intern("phase_checks");
      CounterId decodes = intern("decodes");
      CounterId parity_guards = intern("parity_guards");
      CounterId injected_checks = intern("injected_checks");
    };
    Checks checks;
    CounterSet issues;
    CounterSet injected;  ///< fault-injection observations, never violations
    std::vector<Violation> samples;
  };

  void flag(Scope& s, ScopeId id, Cycle now, std::string_view kind,
            std::string detail);

  std::deque<Scope> scopes_;  ///< deque: stable references across growth
};

}  // namespace cfm::sim
