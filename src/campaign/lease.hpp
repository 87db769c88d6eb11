// Crash-tolerant point leases over the shared result-cache directory.
//
// Multi-process campaigns shard one sweep grid across many worker
// processes (possibly on many hosts) that share nothing but the
// content-addressed `.cfm-cache/` directory.  The cache already makes
// points idempotent and resumable; this layer adds the one missing
// piece: *mutual exclusion with crash tolerance*, so concurrent workers
// never duplicate a running point and a killed worker never strands one.
//
//   - A worker claims a pending point by atomically creating
//     `<cache-dir>/leases/<point-hash>.lease` with O_CREAT|O_EXCL —
//     exactly one creator wins, no locks, no server.  The file body is
//     `pid host epoch-ms` for operators; *liveness* is judged purely by
//     the file's mtime so readers on other hosts need no clock
//     agreement with the writer beyond the shared filesystem's.
//   - While the point runs, the owner refreshes the lease mtime on a
//     heartbeat (LeaseHeartbeat, every ttl/4), so a live point can run
//     arbitrarily longer than the TTL.
//   - A lease whose mtime is older than the TTL is presumed dead (a
//     kill -9'd worker stops heartbeating).  A claimer *reaps* it by
//     atomically renaming it aside — rename is the arbiter, so exactly
//     one reaper wins even when several notice staleness at once — and
//     then re-claims through the normal O_EXCL path.  Stolen, not lost.
//   - A point that exhausts its retry budget publishes a
//     `<point-hash>.failed` verdict document (error text, attempts,
//     last_retry_error) in the same directory: failures must reach the
//     coordinator's report without ever being stored as a cached result.
//
// Worst case after a steal race (TTL too short for a wedged-but-alive
// worker): a point runs twice.  run_point is deterministic, so both runs
// append identical records and a lookup takes the first that verifies:
// the campaign report is unaffected — the protocol trades wasted work
// for liveness, never correctness.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/report.hpp"

namespace cfm::campaign {

class LeaseDir {
 public:
  /// Leases live under `<cache_dir>/leases/`; the directory is created
  /// lazily on the first claim or failure verdict.  `ttl` is the
  /// staleness horizon: a lease mtime older than this is reapable.
  LeaseDir(const std::string& cache_dir, std::chrono::milliseconds ttl);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::chrono::milliseconds ttl() const noexcept { return ttl_; }

  [[nodiscard]] std::string lease_path(const std::string& key) const;
  [[nodiscard]] std::string failure_path(const std::string& key) const;

  /// Attempts to claim the point.  Returns true when this process now
  /// holds the lease (reaping a stale one if necessary), false when a
  /// live lease is held elsewhere.  Throws std::runtime_error when the
  /// leases directory cannot be created.
  [[nodiscard]] bool try_claim(const std::string& key);

  /// Releases a lease (idempotent: a missing file is fine — another
  /// worker may already have swept a lease whose point was published).
  void release(const std::string& key) const noexcept;

  /// True when a *fresh* (non-stale) lease file exists for the key.
  [[nodiscard]] bool leased(const std::string& key) const;

  /// Publishes / reads back a point's failure verdict:
  /// `{ "error": ..., "attempts": N[, "last_retry_error": ...] }`.
  /// Written atomically (tmp + rename); a torn or unparsable verdict
  /// reads as absent.
  void write_failure(const std::string& key, const sim::Json& verdict) const;
  [[nodiscard]] std::optional<sim::Json> load_failure(
      const std::string& key) const;

  /// Drops prior failure verdicts for the given keys — a fresh campaign
  /// run gets a fresh retry budget for previously failed points.
  void clear_failures(const std::vector<std::string>& keys) const;

  /// End-of-campaign sweep: removes leftover lease files for the given
  /// keys (e.g. a worker killed between publishing its result and
  /// releasing) and removes the leases directory if it is empty.
  void sweep(const std::vector<std::string>& keys) const;

 private:
  std::string dir_;
  std::chrono::milliseconds ttl_;
};

/// RAII heartbeat: refreshes a held lease's mtime every ttl/4 from a
/// background thread so a live point never goes stale, however long it
/// runs.  stop() (or destruction) ends the refreshing before the owner
/// releases the lease.
class LeaseHeartbeat {
 public:
  LeaseHeartbeat(std::string lease_path, std::chrono::milliseconds ttl);
  ~LeaseHeartbeat();
  LeaseHeartbeat(const LeaseHeartbeat&) = delete;
  LeaseHeartbeat& operator=(const LeaseHeartbeat&) = delete;

  void stop();

 private:
  std::string path_;
  std::chrono::milliseconds period_;
  std::mutex mx_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace cfm::campaign
