// The bind/unbind engine (§6.2.2, implementation per §6.5.1 / Fig 6.11).
//
// Binding requests that do not conflict with any active bind enter the
// *active binding list*; conflicting blocking requests park on a request
// queue and are retried as unbinds arrive.  Conflict = different owner,
// intersecting regions, and at least one read-write — the multiple-read /
// single-write rule that keeps readers parallel.
//
// Deadlock detection (§6 "reliability"): before a blocking request sleeps,
// the wait-for graph (waiting owner -> owners of the binds that block it)
// is checked for a cycle through the requester; a cycle throws
// DeadlockError instead of deadlocking — the paper's dining-philosophers
// discussion notes the paradigm makes such detection easy to build in.
//
// Thread-safe; this is the shared-memory runtime used by real std::thread
// programs (examples/dining_philosophers, examples/pipeline).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "binding/region.hpp"

namespace cfm::bind {

enum class Access : std::uint8_t { ReadOnly, ReadWrite };
enum class Sync : std::uint8_t { Blocking, NonBlocking };

using BindingId = std::uint64_t;
using OwnerId = std::uint64_t;

class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

class BindingManager {
 public:
  /// Attempts to bind `region` for `owner`; returns nullopt on conflict
  /// when `sync` is NonBlocking, blocks until grantable when Blocking.
  /// Throws DeadlockError if blocking would complete a wait cycle.
  std::optional<BindingId> bind(const Region& region, Access access,
                                Sync sync, OwnerId owner);

  /// Releases a granted binding and wakes parked requests.
  void unbind(BindingId id);

  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] std::uint64_t total_grants() const;
  [[nodiscard]] std::uint64_t total_conflicts() const;

 private:
  struct ActiveBind {
    BindingId id = 0;
    OwnerId owner = 0;
    Region region;
    Access access = Access::ReadOnly;
  };

  [[nodiscard]] bool conflicts_locked(const Region& region, Access access,
                                      OwnerId owner,
                                      std::vector<OwnerId>* blockers) const;
  [[nodiscard]] bool would_deadlock_locked(OwnerId waiter,
                                           const std::vector<OwnerId>& blockers) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ActiveBind> active_;
  /// owner -> owners it is currently waiting on (wait-for graph edges).
  std::map<OwnerId, std::vector<OwnerId>> waiting_on_;
  std::uint64_t grants_ = 0;
  std::uint64_t conflicts_ = 0;
  BindingId next_id_ = 1;
};

/// RAII handle: unbinds on destruction.
class ScopedBind {
 public:
  ScopedBind(BindingManager& mgr, BindingId id) : mgr_(&mgr), id_(id) {}
  ScopedBind(ScopedBind&& other) noexcept
      : mgr_(other.mgr_), id_(other.id_) {
    other.mgr_ = nullptr;
  }
  ScopedBind& operator=(ScopedBind&& other) noexcept {
    if (this != &other) {
      reset();
      mgr_ = other.mgr_;
      id_ = other.id_;
      other.mgr_ = nullptr;
    }
    return *this;
  }
  ScopedBind(const ScopedBind&) = delete;
  ScopedBind& operator=(const ScopedBind&) = delete;
  ~ScopedBind() { reset(); }

  void reset() {
    if (mgr_ != nullptr) {
      mgr_->unbind(id_);
      mgr_ = nullptr;
    }
  }
  [[nodiscard]] BindingId id() const noexcept { return id_; }

 private:
  BindingManager* mgr_;
  BindingId id_;
};

}  // namespace cfm::bind
