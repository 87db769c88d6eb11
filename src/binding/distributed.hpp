// Resource binding on a distributed-memory machine (§6.5.2).
//
// "Each binding request is carried out by sending a request message to
//  the server processor of the target data structures ...  A daemon
//  process on the server processor verifies the request and, if no
//  conflict is detected, returns to the requesting process either an
//  acknowledgement ... or the target data region ...  An unbinding
//  request on a rw type region also sends the data region itself back to
//  the server processor."
//
// This is that design as a runnable runtime: every shared object has a
// home node; a daemon thread per node serializes bind/unbind requests;
// ro binds ship a copy of the region to the requester, rw binds migrate
// it and ship it back on unbind (the release-consistency flavour the
// paper recommends — updates propagate at release time).  Message counts
// and shipped bytes are tracked so the §6.5 overhead discussion is
// measurable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "binding/manager.hpp"
#include "binding/region.hpp"

namespace cfm::bind {

class DistributedBindingRuntime {
 public:
  struct Params {
    std::size_t nodes = 4;
    /// Simulated one-way message latency (0 for fastest tests).
    std::chrono::microseconds hop_delay{0};
    /// Bytes per region element for shipping accounting.
    std::uint32_t element_bytes = 8;
  };

  struct Ticket {
    BindingId id = 0;
    std::size_t home = 0;
    Access access = Access::ReadOnly;
    std::uint64_t shipped_bytes = 0;  ///< data moved to the requester
  };

  explicit DistributedBindingRuntime(const Params& params);
  ~DistributedBindingRuntime();

  DistributedBindingRuntime(const DistributedBindingRuntime&) = delete;
  DistributedBindingRuntime& operator=(const DistributedBindingRuntime&) = delete;

  /// Home node of a shared object (distribution by object id).
  [[nodiscard]] std::size_t home_of(std::uint64_t object) const noexcept {
    return object % nodes_.size();
  }

  /// Sends a bind request to the region's home node.  Blocking requests
  /// park at the home daemon until grantable.  Returns nullopt only for
  /// NonBlocking conflicts.
  std::optional<Ticket> bind(const Region& region, Access access, Sync sync,
                             OwnerId owner);

  /// Releases the binding; rw regions ship their data back to the home
  /// node ("release": updates become visible to later binders).
  void unbind(const Ticket& ticket);

  [[nodiscard]] std::uint64_t messages_sent() const noexcept;
  [[nodiscard]] std::uint64_t bytes_shipped() const noexcept;

 private:
  struct BindRequest {
    Region region{0};
    Access access = Access::ReadOnly;
    Sync sync = Sync::NonBlocking;
    OwnerId owner = 0;
    std::promise<std::optional<BindingId>> reply;
  };
  struct UnbindRequest {
    BindingId id = 0;
    std::promise<void> reply;
  };

  struct Node {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<BindRequest> binds;
    std::deque<UnbindRequest> unbinds;
    /// Blocking requests that conflicted, retried after each unbind.
    std::deque<BindRequest> parked;
    BindingManager manager;  ///< used in NonBlocking mode only
    std::thread daemon;
    bool stop = false;
  };

  void daemon_loop(Node& node);
  void service_bind(Node& node, BindRequest&& req);
  [[nodiscard]] std::uint64_t region_bytes(const Region& region) const;

  Params params_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> shipped_{0};
};

}  // namespace cfm::bind
