#include "binding/manager.hpp"

#include <algorithm>
#include <chrono>
#include <set>

namespace cfm::bind {

bool BindingManager::conflicts_locked(const Region& region, Access access,
                                      OwnerId owner,
                                      std::vector<OwnerId>* blockers) const {
  bool any = false;
  for (const auto& a : active_) {
    if (a.owner == owner) continue;  // rebinding by the same owner is free
    if (access == Access::ReadOnly && a.access == Access::ReadOnly) continue;
    if (!a.region.intersects(region)) continue;
    any = true;
    if (blockers == nullptr) return true;
    blockers->push_back(a.owner);
  }
  return any;
}

bool BindingManager::would_deadlock_locked(
    OwnerId waiter, const std::vector<OwnerId>& blockers) const {
  // DFS over the wait-for graph: waiter -> blockers -> (owners those
  // blockers are waiting on) -> ...; a path back to `waiter` is a cycle.
  std::set<OwnerId> visited;
  std::vector<OwnerId> stack(blockers.begin(), blockers.end());
  while (!stack.empty()) {
    const auto o = stack.back();
    stack.pop_back();
    if (o == waiter) return true;
    if (!visited.insert(o).second) continue;
    const auto it = waiting_on_.find(o);
    if (it == waiting_on_.end()) continue;
    stack.insert(stack.end(), it->second.begin(), it->second.end());
  }
  return false;
}

std::optional<BindingId> BindingManager::bind(const Region& region,
                                              Access access, Sync sync,
                                              OwnerId owner) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::vector<OwnerId> blockers;
    if (!conflicts_locked(region, access, owner, &blockers)) {
      const auto id = next_id_++;
      active_.push_back(ActiveBind{id, owner, region, access});
      ++grants_;
      return id;
    }
    ++conflicts_;
    if (sync == Sync::NonBlocking) return std::nullopt;
    if (would_deadlock_locked(owner, blockers)) {
      throw DeadlockError("bind(" + region.to_string() +
                          ") would deadlock: wait-for cycle detected");
    }
    waiting_on_[owner] = blockers;
    // Timed wait: a cycle can form *after* we checked (both parties passed
    // the check before either registered its edges); waking periodically
    // re-runs the detection against the now-complete wait-for graph.
    cv_.wait_for(lock, std::chrono::milliseconds(1));
    waiting_on_.erase(owner);
  }
}

void BindingManager::unbind(BindingId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find_if(active_.begin(), active_.end(),
                     [&](const ActiveBind& a) { return a.id == id; });
    if (it == active_.end()) {
      throw std::invalid_argument("unbind: unknown binding id");
    }
    active_.erase(it);
  }
  cv_.notify_all();
}

std::size_t BindingManager::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

std::uint64_t BindingManager::total_grants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grants_;
}

std::uint64_t BindingManager::total_conflicts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conflicts_;
}

}  // namespace cfm::bind
