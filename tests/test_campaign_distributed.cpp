// Multi-process campaign sharding: the lease protocol (atomic claims,
// stale-lease reaping, heartbeats, failure verdicts), the worker loop,
// and the coordinator — including the crash/resume suite: a SIGKILL'd
// worker's points must be stolen via its stale lease, never lost, and
// reports from any worker count, crash pattern or resume must be
// byte-identical to the single-process path.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/lease.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace fs = std::filesystem;
using namespace cfm;
using namespace cfm::campaign;
using namespace std::chrono_literals;

namespace {

/// Unique scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("cfm_dist_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

Scenario small_grid() {
  return Scenario::parse_text(R"({
    "name": "grid",
    "workload": "cfm",
    "audit": true,
    "params": { "rate": 0.3, "cycles": 300 },
    "sweep": { "n": [2, 4], "c": [1, 2] },
    "base_seed": 7 })");
}

/// Instant analytic grid for lease-mechanics tests.
Scenario tradeoff_grid() {
  return Scenario::parse_text(R"({
    "name": "rows",
    "workload": "tradeoff",
    "params": { "block_bits": 64, "b": 8 },
    "sweep": { "c": [1, 2, 4] } })");
}

void backdate(const std::string& path, std::chrono::seconds by) {
  fs::last_write_time(path, fs::file_time_type::clock::now() - by);
}

std::size_t count_files_matching(const fs::path& root,
                                 const std::string& needle) {
  std::size_t n = 0;
  if (!fs::exists(root)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.path().filename().string().find(needle) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

/// Forks a child that runs the worker loop and exits with its code —
/// the test-side stand-in for `cfm_campaign --worker`.
long long fork_worker(const Scenario& scenario, const WorkerOptions& options) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  int code = 1;
  try {
    code = run_worker(scenario, options);
  } catch (...) {
    code = 1;
  }
  ::_exit(code);
}

int wait_for(long long pid) {
  int status = 0;
  ::waitpid(static_cast<pid_t>(pid), &status, 0);
  return status;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lease protocol.

TEST(Lease, ClaimIsExclusiveUntilReleased) {
  ScratchDir dir("claim");
  LeaseDir a(dir.path.string(), 60s);
  LeaseDir b(dir.path.string(), 60s);
  EXPECT_TRUE(a.try_claim("k1"));
  EXPECT_FALSE(b.try_claim("k1"));
  EXPECT_TRUE(a.leased("k1"));
  a.release("k1");
  EXPECT_TRUE(b.try_claim("k1"));
  b.release("k1");
  EXPECT_FALSE(b.leased("k1"));
}

TEST(Lease, StaleLeaseIsReapedAndReclaimed) {
  ScratchDir dir("stale");
  LeaseDir dead(dir.path.string(), 60s);
  ASSERT_TRUE(dead.try_claim("k"));
  // Simulate a kill -9'd owner: no heartbeat ever refreshes the mtime.
  backdate(dead.lease_path("k"), 10s);
  LeaseDir thief(dir.path.string(), std::chrono::milliseconds(200));
  EXPECT_FALSE(thief.leased("k")) << "backdated lease must read as stale";
  EXPECT_TRUE(thief.try_claim("k")) << "stale lease must be stolen";
  // The reaped grave file must not linger.
  EXPECT_EQ(count_files_matching(dir.path, ".reaped."), 0u);
  thief.release("k");
}

TEST(Lease, FreshLeaseIsNotReaped) {
  ScratchDir dir("fresh");
  LeaseDir owner(dir.path.string(), 60s);
  ASSERT_TRUE(owner.try_claim("k"));
  LeaseDir other(dir.path.string(), 60s);
  EXPECT_FALSE(other.try_claim("k"));
  EXPECT_TRUE(fs::exists(owner.lease_path("k")));
  owner.release("k");
}

TEST(Lease, HeartbeatKeepsALiveLeaseFresh) {
  ScratchDir dir("heartbeat");
  const auto ttl = std::chrono::milliseconds(250);
  LeaseDir owner(dir.path.string(), ttl);
  ASSERT_TRUE(owner.try_claim("k"));
  LeaseDir other(dir.path.string(), ttl);
  {
    LeaseHeartbeat heartbeat(owner.lease_path("k"), ttl);
    // Far past the TTL, but the heartbeat (every ttl/4) keeps it fresh.
    std::this_thread::sleep_for(3 * ttl);
    EXPECT_FALSE(other.try_claim("k"))
        << "heartbeated lease must not be stolen";
  }
  // Heartbeat stopped (owner "died"): the lease ages out and is stolen.
  std::this_thread::sleep_for(2 * ttl);
  EXPECT_TRUE(other.try_claim("k"));
  other.release("k");
}

TEST(Lease, FailureVerdictRoundTripAndClear) {
  ScratchDir dir("verdict");
  LeaseDir leases(dir.path.string(), 60s);
  EXPECT_FALSE(leases.load_failure("k").has_value());
  auto verdict = sim::Json::object();
  verdict["error"] = "bank exploded";
  verdict["attempts"] = 3;
  verdict["last_retry_error"] = "bank smoked";
  leases.write_failure("k", verdict);
  const auto back = leases.load_failure("k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->at("error").as_string(), "bank exploded");
  EXPECT_EQ(back->at("attempts").as_uint(), 3u);
  // A torn verdict reads as absent (the point is still pending).
  std::ofstream(leases.failure_path("torn"), std::ios::trunc) << "{ \"err";
  EXPECT_FALSE(leases.load_failure("torn").has_value());
  leases.clear_failures({"k", "torn"});
  EXPECT_FALSE(leases.load_failure("k").has_value());
}

TEST(Lease, SweepDropsLeftoversAndEmptyDir) {
  ScratchDir dir("sweep");
  LeaseDir leases(dir.path.string(), 60s);
  ASSERT_TRUE(leases.try_claim("a"));
  ASSERT_TRUE(leases.try_claim("b"));
  leases.sweep({"a", "b"});
  EXPECT_FALSE(fs::exists(leases.lease_path("a")));
  EXPECT_FALSE(fs::exists(leases.dir())) << "empty leases dir must go too";
}

// ---------------------------------------------------------------------------
// Bounded retry accounting (the execute_with_retry regression suite).

TEST(Retry, SucceedsAfterTransientFailuresAndRecordsAttempts) {
  // A runner that fails twice then succeeds: the report row must say so
  // — previously attempt 3 was indistinguishable from attempt 1 and the
  // retried errors were discarded.
  const auto s = Scenario::parse_text(R"({
    "name": "flaky", "workload": "tradeoff", "retries": 3,
    "params": { "block_bits": 64, "b": 8, "c": 2 } })");
  int calls = 0;
  CampaignOptions options;
  options.cache_dir.clear();
  options.runner = [&calls](const PointSpec& point) {
    if (++calls <= 2) {
      throw std::runtime_error("transient fault #" + std::to_string(calls));
    }
    return run_point(point);
  };
  const auto result = run_campaign(s, options);
  EXPECT_EQ(result.executed, 1u);
  EXPECT_EQ(result.failed, 0u);
  const auto& row = result.report.at("points").as_array()[0];
  EXPECT_EQ(row.at("attempts").as_uint(), 3u);
  EXPECT_EQ(row.at("last_retry_error").as_string(), "transient fault #2");
  EXPECT_TRUE(row.as_object().count("metrics"));
}

TEST(Retry, ExhaustedBudgetRecordsFinalAndRetriedErrors) {
  const auto s = Scenario::parse_text(R"({
    "name": "doomed", "workload": "tradeoff", "retries": 1,
    "params": { "block_bits": 64, "b": 8, "c": 2 } })");
  int calls = 0;
  CampaignOptions options;
  options.cache_dir.clear();
  options.runner = [&calls](const PointSpec&) -> sim::Json {
    throw std::runtime_error("fault #" + std::to_string(++calls));
  };
  const auto result = run_campaign(s, options);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.exit_code(), 4);
  const auto& row = result.report.at("points").as_array()[0];
  EXPECT_EQ(row.at("error").as_string(), "fault #2");
  EXPECT_EQ(row.at("attempts").as_uint(), 2u);
  EXPECT_EQ(row.at("last_retry_error").as_string(), "fault #1");
}

TEST(Retry, FirstAttemptSuccessKeepsTheRowClean) {
  // Provenance must stay out of the deterministic report body: a clean
  // first-attempt run contributes no attempts field at all.
  CampaignOptions options;
  options.cache_dir.clear();
  const auto result = run_campaign(tradeoff_grid(), options);
  for (const auto& row : result.report.at("points").as_array()) {
    EXPECT_FALSE(row.as_object().count("attempts"));
    EXPECT_FALSE(row.as_object().count("last_retry_error"));
  }
}

// ---------------------------------------------------------------------------
// Cache store failure: loud, litter-free, surfaced through the retry path.

TEST(CacheStore, UnwritableCacheDirThrowsNamingThePath) {
  ScratchDir dir("publish");
  const auto cache_dir = (dir.path / "c").string();
  // The cache-dir path is a regular file: neither the directory nor the
  // pack can be created, and the store must say where it tried.
  std::ofstream(cache_dir) << "not a directory";
  ResultCache cache(cache_dir);
  const auto point = tradeoff_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  try {
    cache.store(point, result);
    ADD_FAILURE() << "store into a non-directory must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(cache_dir), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fs::is_regular_file(cache_dir));
  EXPECT_EQ(count_files_matching(dir.path, ".tmp."), 0u);
}

TEST(CacheStore, CampaignSurfacesPersistentStoreFailureAsFailedPoint) {
  ScratchDir dir("publish_campaign");
  const auto s = Scenario::parse_text(R"({
    "name": "one", "workload": "tradeoff", "retries": 1,
    "params": { "block_bits": 64, "b": 8, "c": 2 } })");
  CampaignOptions options;
  options.cache_dir = (dir.path / "c").string();
  std::ofstream(options.cache_dir) << "not a directory";
  const auto result = run_campaign(s, options);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.exit_code(), 4);
  const auto& row = result.report.at("points").as_array()[0];
  EXPECT_NE(row.at("error").as_string().find(options.cache_dir),
            std::string::npos)
      << row.at("error").as_string();
  EXPECT_EQ(row.at("attempts").as_uint(), 2u) << "store failures must retry";
  EXPECT_EQ(count_files_matching(dir.path, ".tmp."), 0u);
}

// ---------------------------------------------------------------------------
// The worker loop.

TEST(Worker, CompletesTheGridStandalone) {
  ScratchDir dir("worker");
  WorkerOptions options;
  options.cache_dir = (dir.path / "c").string();
  const auto s = tradeoff_grid();
  EXPECT_EQ(run_worker(s, options), 0);
  ResultCache cache(options.cache_dir);
  for (const auto& point : s.expand()) EXPECT_TRUE(cache.contains(point));
  EXPECT_EQ(count_files_matching(dir.path, ".lease"), 0u);
  EXPECT_FALSE(fs::exists(fs::path(options.cache_dir) / "leases"));
}

TEST(Worker, ReapsAStaleLeaseFromADeadWorker) {
  ScratchDir dir("steal");
  WorkerOptions options;
  options.cache_dir = (dir.path / "c").string();
  options.lease_ttl = 200ms;
  options.poll = 20ms;
  const auto s = tradeoff_grid();
  const auto first = s.expand().front();
  // A dead worker left a lease behind (kill -9: no heartbeat, no
  // release).  The point must be stolen, not waited on forever.
  LeaseDir leases(options.cache_dir, options.lease_ttl);
  ASSERT_TRUE(leases.try_claim(first.cache_key()));
  backdate(leases.lease_path(first.cache_key()), 10s);
  EXPECT_EQ(run_worker(s, options), 0);
  EXPECT_TRUE(ResultCache(options.cache_dir).contains(first))
      << "the dead worker's point must be re-run";
  EXPECT_EQ(count_files_matching(dir.path, ".lease"), 0u);
}

TEST(Worker, HonorsPublishedFailureVerdicts) {
  ScratchDir dir("verdicts");
  WorkerOptions options;
  options.cache_dir = (dir.path / "c").string();
  const auto s = tradeoff_grid();
  const auto points = s.expand();
  LeaseDir leases(options.cache_dir, 60s);
  auto verdict = sim::Json::object();
  verdict["error"] = "poisoned";
  verdict["attempts"] = 2;
  leases.write_failure(points[1].cache_key(), verdict);
  EXPECT_EQ(run_worker(s, options), 4) << "a failed point must surface";
  ResultCache cache(options.cache_dir);
  EXPECT_TRUE(cache.contains(points[0]));
  EXPECT_FALSE(cache.contains(points[1])) << "verdicts are not re-run";
  EXPECT_TRUE(cache.contains(points[2]));
}

TEST(Worker, RequiresAResultCache) {
  WorkerOptions options;
  options.cache_dir.clear();
  EXPECT_THROW((void)run_worker(tradeoff_grid(), options),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The multi-process coordinator (crash/resume suite).

TEST(Distributed, WorkerCountsAndSingleProcessAreByteIdentical) {
  ScratchDir dir("counts");
  const auto s = small_grid();

  CampaignOptions serial;
  serial.cache_dir.clear();
  const auto reference = run_campaign(s, serial);

  for (const unsigned workers : {1u, 4u}) {
    DistributedOptions options;
    options.cache_dir =
        (dir.path / ("c" + std::to_string(workers))).string();
    options.workers = workers;
    options.poll = 20ms;
    WorkerOptions wopts;
    wopts.cache_dir = options.cache_dir;
    options.spawn = [&s, wopts] { return fork_worker(s, wopts); };
    const auto result = run_campaign_workers(s, options);
    EXPECT_EQ(result.points, 4u);
    EXPECT_EQ(result.executed, 4u);
    EXPECT_EQ(result.cached, 0u);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.report.dump(), reference.report.dump())
        << "--workers " << workers
        << " must reproduce the single-process report byte-for-byte";
    EXPECT_EQ(count_files_matching(dir.path, ".lease"), 0u);
    EXPECT_EQ(count_files_matching(dir.path, ".tmp."), 0u);
  }
}

TEST(Distributed, FullyCachedRerunExecutesNothing) {
  ScratchDir dir("rerun");
  const auto s = small_grid();
  DistributedOptions options;
  options.cache_dir = (dir.path / "c").string();
  options.workers = 2;
  options.poll = 20ms;
  WorkerOptions wopts;
  wopts.cache_dir = options.cache_dir;
  options.spawn = [&s, wopts] { return fork_worker(s, wopts); };
  const auto first = run_campaign_workers(s, options);
  EXPECT_EQ(first.executed, 4u);
  const auto second = run_campaign_workers(s, options);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.cached, 4u);
  EXPECT_EQ(second.report.dump(), first.report.dump());
}

TEST(Distributed, SigkilledWorkersPointIsStolenNotLost) {
  ScratchDir dir("sigkill");
  const auto s = small_grid();

  CampaignOptions serial;
  serial.cache_dir.clear();
  const auto reference = run_campaign(s, serial);

  const auto cache_dir = (dir.path / "c").string();
  // Victim worker: claims its first point, heartbeats rarely (long TTL)
  // and blocks inside the runner until SIGKILL arrives mid-point.
  WorkerOptions victim;
  victim.cache_dir = cache_dir;
  victim.lease_ttl = 60s;
  victim.runner = [](const PointSpec&) -> sim::Json {
    std::this_thread::sleep_for(60s);  // killed long before this returns
    throw std::runtime_error("unreachable");
  };
  const long long victim_pid = fork_worker(s, victim);
  ASSERT_GT(victim_pid, 0);

  // Wait until the victim holds a lease (it is mid-point by then).
  LeaseDir leases(cache_dir, 250ms);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  std::string held_key;
  while (held_key.empty() && std::chrono::steady_clock::now() < deadline) {
    for (const auto& point : s.expand()) {
      if (fs::exists(leases.lease_path(point.cache_key()))) {
        held_key = point.cache_key();
        break;
      }
    }
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_FALSE(held_key.empty()) << "victim never claimed a point";
  ASSERT_EQ(::kill(static_cast<pid_t>(victim_pid), SIGKILL), 0);
  wait_for(victim_pid);
  EXPECT_TRUE(fs::exists(leases.lease_path(held_key)))
      << "kill -9 must leave the lease behind (that is the point)";

  // Resume with a fresh fleet and a short TTL: the dead worker's lease
  // goes stale, is reaped, and the point re-runs on another worker.
  DistributedOptions options;
  options.cache_dir = cache_dir;
  options.workers = 2;
  options.lease_ttl = 250ms;
  options.poll = 20ms;
  WorkerOptions wopts;
  wopts.cache_dir = cache_dir;
  wopts.lease_ttl = 250ms;
  wopts.poll = 20ms;
  options.spawn = [&s, wopts] { return fork_worker(s, wopts); };
  const auto resumed = run_campaign_workers(s, options);
  EXPECT_EQ(resumed.failed, 0u);
  EXPECT_EQ(resumed.report.dump(), reference.report.dump())
      << "kill/resume must reproduce the single-process report";
  EXPECT_EQ(count_files_matching(dir.path, ".lease"), 0u)
      << "no stranded lease files after the campaign";
  EXPECT_EQ(count_files_matching(dir.path, ".tmp."), 0u);
}

TEST(Distributed, CrashedWorkerIsRespawned) {
  ScratchDir dir("respawn");
  const auto s = tradeoff_grid();
  DistributedOptions options;
  options.cache_dir = (dir.path / "c").string();
  options.workers = 1;
  options.poll = 20ms;
  WorkerOptions wopts;
  wopts.cache_dir = options.cache_dir;
  // First spawn dies instantly (crash at startup); the coordinator must
  // keep the fleet at strength with a healthy replacement.
  int spawns = 0;
  options.spawn = [&s, wopts, &spawns]() -> long long {
    if (++spawns == 1) {
      const pid_t pid = ::fork();
      if (pid == 0) ::_exit(9);
      return pid;
    }
    return fork_worker(s, wopts);
  };
  const auto result = run_campaign_workers(s, options);
  EXPECT_GE(spawns, 2);
  EXPECT_EQ(result.executed, 3u);
  EXPECT_EQ(result.failed, 0u);
}

TEST(Distributed, RequiresCacheAndAtLeastOneWorker) {
  DistributedOptions no_cache;
  no_cache.cache_dir.clear();
  no_cache.spawn = [] { return -1LL; };
  EXPECT_THROW((void)run_campaign_workers(tradeoff_grid(), no_cache),
               std::invalid_argument);
  DistributedOptions zero;
  zero.workers = 0;
  zero.spawn = [] { return -1LL; };
  EXPECT_THROW((void)run_campaign_workers(tradeoff_grid(), zero),
               std::invalid_argument);
  DistributedOptions no_spawn;  // neither spawn hook nor spawn_argv
  EXPECT_THROW((void)run_campaign_workers(tradeoff_grid(), no_spawn),
               std::invalid_argument);
}
