#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <map>

namespace cfm::sim {

namespace {
EngineTuning g_engine_tuning;
}  // namespace

void set_engine_tuning(const EngineTuning& tuning) noexcept {
  g_engine_tuning = tuning;
}

const EngineTuning& engine_tuning() noexcept { return g_engine_tuning; }

Engine::Engine(const EngineConfig& cfg) : cfg_(cfg) {
  const EngineTuning& t = engine_tuning();
  if (t.fast_path) cfg_.fast_path = *t.fast_path;
  if (t.max_span) cfg_.max_span = *t.max_span;
  if (cfg_.max_span < 1) cfg_.max_span = 1;
}

DomainId Engine::allocate_domain() {
  const DomainId d = next_domain_++;
  (void)shard(d);  // materialize the shard eagerly
  return d;
}

Component* Engine::add(std::shared_ptr<Component> component) {
  (void)shard(component->domain());
  Component* raw = component.get();
  components_.push_back(std::move(component));
  plans_dirty_ = true;
  return raw;
}

Component* Engine::add(Component& component) {
  // Aliasing shared_ptr: shares no control block, never deletes.
  return add(std::shared_ptr<Component>(std::shared_ptr<void>(), &component));
}

StatShard& Engine::shard(DomainId domain) {
  while (shards_.size() <= domain) shards_.emplace_back();
  if (domain >= next_domain_) next_domain_ = domain + 1;
  return shards_[domain];
}

StatShard Engine::merged_stats() const {
  StatShard out;
  for (const auto& s : shards_) out.merge(s);
  return out;
}

void Engine::rebuild_plans_if_dirty() {
  if (!plans_dirty_) return;
  for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
    const auto phase = static_cast<Phase>(pi);
    auto& plan = plans_[pi];
    plan.shared.clear();
    std::map<DomainId, std::vector<Component*>> by_domain;
    for (const auto& c : components_) {
      if (!c->participates_in(phase)) continue;
      if (c->domain() == kSharedDomain) {
        plan.shared.push_back(c.get());
      } else {
        by_domain[c->domain()].push_back(c.get());
      }
    }
    plan.groups.clear();
    plan.groups.reserve(by_domain.size());
    for (auto& [domain, group] : by_domain) {
      plan.groups.push_back(std::move(group));
    }
  }

  // Fast-path tables: the same registry, regrouped domain-major so a
  // span can be dispatched as one job per domain, plus the flat entry
  // table the jump scan polls.
  fast_plan_.groups.clear();
  fast_plan_.entries.clear();
  std::map<DomainId, FastPlan::DomainGroup> by_domain;
  for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
    const auto phase = static_cast<Phase>(pi);
    for (const auto& c : components_) {
      if (!c->participates_in(phase)) continue;
      fast_plan_.entries.emplace_back(c.get(), phase);
      if (c->domain() == kSharedDomain) continue;
      auto& g = by_domain[c->domain()];
      g.domain = c->domain();
      g.by_phase[pi].push_back(c.get());
      ++g.entry_count;
    }
  }
  fast_plan_.groups.reserve(by_domain.size());
  for (auto& [domain, g] : by_domain) {
    if (g.entry_count == 1) {
      for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
        if (!g.by_phase[pi].empty()) {
          g.sole = g.by_phase[pi].front();
          g.sole_phase = static_cast<Phase>(pi);
        }
      }
    }
    fast_plan_.groups.push_back(std::move(g));
  }
  plans_dirty_ = false;
}

void Engine::step_serial() {
  rebuild_plans_if_dirty();
  for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
    const auto phase = static_cast<Phase>(pi);
    const auto& plan = plans_[pi];
    for (auto* c : plan.shared) c->tick_phase(phase, now_);
    for (const auto& group : plan.groups) {
      for (auto* c : group) c->tick_phase(phase, now_);
    }
  }
  ++now_;
}

void Engine::step_cycle_fast() {
  // Reference phase/domain order; every tick guarded by the hint the
  // component last published, read exactly where the reference schedule
  // would have ticked it (so the hint is fresh w.r.t. every mutation
  // earlier in this cycle).
  for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
    const auto phase = static_cast<Phase>(pi);
    const auto& plan = plans_[pi];
    for (auto* c : plan.shared) {
      if (c->next_event(phase) <= now_) c->tick_phase(phase, now_);
    }
    for (const auto& group : plan.groups) {
      for (auto* c : group) {
        if (c->next_event(phase) <= now_) c->tick_phase(phase, now_);
      }
    }
  }
  ++now_;
}

Cycle Engine::quiescent_until() const {
  Cycle wake = kNeverCycle;
  for (const auto& [c, phase] : fast_plan_.entries) {
    const Cycle w = c->next_event(phase);
    if (w <= now_) return Component::kAlways;  // something can act now
    wake = std::min(wake, w);
  }
  return wake;
}

Cycle Engine::shared_quiescent_until() const {
  Cycle wake = kNeverCycle;
  for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
    const auto phase = static_cast<Phase>(pi);
    for (const auto* c : plans_[pi].shared) {
      wake = std::min(wake, c->next_event(phase));
    }
  }
  return wake;
}

Engine::GroupScan Engine::scan_group(const FastPlan::DomainGroup& group,
                                     std::size_t from_phase, Cycle t,
                                     Cycle end) {
  GroupScan scan;
  scan.others = end;
  for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
    const auto phase = static_cast<Phase>(pi);
    for (auto* c : group.by_phase[pi]) {
      const Cycle w = c->next_event(phase);
      if (pi < from_phase) {
        // Already past its tick point this cycle: acts at t + 1 at the
        // earliest.
        scan.others = std::min(scan.others, std::max(w, t + 1));
      } else if (w <= t) {
        ++scan.actionable;
        scan.sole = c;
        scan.sole_phase = phase;
      } else {
        scan.others = std::min(scan.others, w);
      }
    }
  }
  return scan;
}

void Engine::run_group_span(const FastPlan::DomainGroup& group, Cycle begin,
                            Cycle end) {
  if (group.entry_count == 1) {
    // Sole schedulable entry of its domain: hand it the whole span so
    // overrides can fast-forward via precomputed schedule tables.
    group.sole->tick_span(group.sole_phase, begin, end);
    return;
  }
  // Multiple entries: one cycle at a time in the reference phase order,
  // rescanning the hints before each phase that has entries (entries of
  // phases already run at t count as waking at t + 1 or later):
  //   * none actionable: jump the group to the earliest hint;
  //   * exactly one, single-phase and span-capable: hand it a sub-span
  //     up to the earliest hint of the others.  Those hints cannot
  //     change meanwhile — only their own ticks re-publish them, and a
  //     span-capable component's ticks touch nothing they read — so
  //     every cycle of the sub-span runs that one entry alone, as this
  //     loop would.  Found after the driver's phase, this is how a
  //     memory joins the span in the cycle its driver issues;
  //   * otherwise: tick the phase's entries whose hint has come due, with
  //     the same guards as step_cycle_fast.
  // Legal because nothing outside the domain runs during the span and
  // shared state is frozen across it.
  for (Cycle t = begin; t < end;) {
    Cycle next = t + 1;
    for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
      if (group.by_phase[pi].empty()) continue;
      const GroupScan scan = scan_group(group, pi, t, end);
      if (scan.actionable == 0) {
        next = scan.others;
        break;
      }
      if (scan.actionable == 1 && scan.sole->span_capable() &&
          std::has_single_bit(scan.sole->phases())) {
        scan.sole->tick_span(scan.sole_phase, t, scan.others);
        next = scan.others;
        break;
      }
      const auto phase = static_cast<Phase>(pi);
      for (auto* c : group.by_phase[pi]) {
        if (c->next_event(phase) <= t) c->tick_phase(phase, t);
      }
    }
    t = next;
  }
}

void Engine::advance_to(Cycle target) {
  rebuild_plans_if_dirty();
  while (now_ < target) {
    // Jump rule: if every entry engine-wide is quiescent past now_,
    // nothing can act and no hint can change — teleport the clock to
    // the earliest hint.
    const Cycle wake = quiescent_until();
    if (wake > now_) {
      now_ = std::min(wake, target);
      continue;
    }
    // Span rule: fusion is bounded by the hints of shared entries — they
    // could interact with any domain, so the span must end before one
    // becomes actionable.  Only a cycle in which a shared entry acts runs
    // per cycle; a shared wake at now_ + 1 gives 1-cycle spans.
    Cycle end = std::min(target, now_ + cfg_.max_span);
    end = std::min(end, shared_quiescent_until());
    if (end <= now_) {
      step_cycle_fast();
      continue;
    }
    for (const auto& group : fast_plan_.groups) {
      run_group_span(group, now_, end);
    }
    now_ = end;
  }
}

void Engine::step() {
  if (cfg_.fast_path) {
    rebuild_plans_if_dirty();
    step_cycle_fast();
    return;
  }
  step_serial();
}

void Engine::run_for(Cycle cycles) {
  if (cfg_.fast_path) {
    advance_to(now_ + cycles);
    return;
  }
  for (Cycle i = 0; i < cycles; ++i) step();
}

}  // namespace cfm::sim
