#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "campaign/lease.hpp"
#include "campaign/runner.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cfm::campaign {
namespace {

using sim::Json;

/// Completion-order "[k/N] <key> <params>: <what>" progress stream,
/// shared by both executors.
class ProgressStream {
 public:
  ProgressStream(std::function<void(const std::string&)> sink,
                 std::size_t total)
      : sink_(std::move(sink)), total_(total) {}

  void announce(const PointRun& run, const char* what) {
    if (!sink_) return;
    std::lock_guard<std::mutex> lock(mx_);
    std::ostringstream os;
    os << '[' << ++announced_ << '/' << total_ << "] " << run.spec.cache_key()
       << describe_point(run.spec) << ": " << what;
    if (run.failed) os << " (" << run.error << ')';
    sink_(os.str());
  }

 private:
  std::function<void(const std::string&)> sink_;
  std::size_t total_;
  std::mutex mx_;
  std::size_t announced_ = 0;
};

void finish(CampaignResult& out, const Scenario& scenario,
            const std::vector<PointRun>& runs) {
  for (const auto& run : runs) {
    if (run.cached) {
      ++out.cached;
    } else if (run.failed) {
      ++out.failed;
    } else {
      ++out.executed;
    }
  }
  out.report = aggregate(scenario, runs);
  out.audit_violations = out.report.at("audit").at("violations").as_uint();
}

}  // namespace

CampaignResult run_campaign(const Scenario& scenario,
                            const CampaignOptions& options) {
  const auto specs = scenario.expand();
  ResultCache cache(options.cache_dir);
  const PointRunner runner =
      options.runner ? options.runner : PointRunner(&run_point);

  std::vector<PointRun> runs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) runs[i].spec = specs[i];

  CampaignResult out;
  out.points = runs.size();
  ProgressStream progress(options.progress, runs.size());

  // Pass 1 (serial): serve cache hits — the resume path.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (auto hit = cache.load(runs[i].spec)) {
      runs[i].result = std::move(*hit);
      runs[i].cached = true;
      progress.announce(runs[i], "cached");
    } else {
      misses.push_back(i);
    }
  }

  // Pass 2 (sharded): run the misses concurrently.  Each job touches
  // only its own PointRun slot; progress and cache stores synchronize
  // internally.  The cache store runs *inside* the bounded retry loop,
  // so an environmental store failure (cross-device rename, yanked
  // cache dir) retries with the point and, if persistent, surfaces as a
  // failed point in the report instead of vanishing or terminating a
  // pool thread.
  const auto run_one = [&](std::size_t index) {
    PointRun& run = runs[index];
    execute_with_retry(run, scenario.retries(), runner,
                       [&](const PointRun& r) { cache.store(r.spec, r.result); });
    progress.announce(run, run.failed ? "FAILED" : "ran");
  };
  unsigned jobs = options.jobs != 0
                      ? options.jobs
                      : std::max(1u, std::thread::hardware_concurrency());
  if (misses.size() < jobs) jobs = static_cast<unsigned>(misses.size());
  // `jobs` threads drain the miss list through one shared index; the
  // jthreads join when the vector goes out of scope.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t j = next.fetch_add(1);
      if (j >= misses.size()) return;
      run_one(misses[j]);
    }
  };
  if (jobs <= 1) {
    drain();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(drain);
  }

  finish(out, scenario, runs);
  return out;
}

// ---- multi-process executor -------------------------------------------

int run_worker(const Scenario& scenario, const WorkerOptions& options) {
  if (options.cache_dir.empty()) {
    throw std::invalid_argument(
        "campaign worker: a result cache is required (the cache directory "
        "is the coordination medium)");
  }
  const auto specs = scenario.expand();
  ResultCache cache(options.cache_dir);
  LeaseDir leases(options.cache_dir, options.lease_ttl);
  const PointRunner runner =
      options.runner ? options.runner : PointRunner(&run_point);

  bool saw_failure = false;
  for (;;) {
    std::size_t done = 0;
    bool claimed_any = false;
    for (const auto& spec : specs) {
      const std::string key = spec.cache_key();
      if (cache.contains(spec)) {
        // Published points need no lease; dropping any leftover one also
        // cleans up after a worker killed between publish and release.
        leases.release(key);
        ++done;
        continue;
      }
      if (leases.load_failure(key)) {
        saw_failure = true;  // verdict already published — don't re-run
        ++done;
        continue;
      }
      if (!leases.try_claim(key)) continue;  // live owner elsewhere
      if (cache.contains(spec)) {
        leases.release(key);  // lost the publish race after our scan
        ++done;
        continue;
      }
      claimed_any = true;
      PointRun run;
      run.spec = spec;
      {
        LeaseHeartbeat heartbeat(leases.lease_path(key), options.lease_ttl);
        execute_with_retry(
            run, scenario.retries(), runner,
            [&](const PointRun& r) { cache.store(r.spec, r.result); });
      }
      if (run.failed) {
        leases.write_failure(key, failure_verdict(run));
        saw_failure = true;
      }
      leases.release(key);
      ++done;
      if (options.progress) {
        options.progress(key + describe_point(spec) +
                         (run.failed ? ": FAILED (" + run.error + ")"
                                     : ": ran"));
      }
    }
    if (done == specs.size()) break;
    // Every pending point is leased by a live worker elsewhere: wait for
    // it to publish, fail, or die (its lease then goes stale and the
    // next scan reaps it).
    if (!claimed_any) std::this_thread::sleep_for(options.poll);
  }
  // The grid is done: no lease can be live, so sweep leftovers (a worker
  // killed between publish and release) and drop the directory if empty.
  std::vector<std::string> keys;
  keys.reserve(specs.size());
  for (const auto& spec : specs) keys.push_back(spec.cache_key());
  leases.sweep(keys);
  return saw_failure ? 4 : 0;
}

#ifndef _WIN32
namespace {

/// fork/execs one worker: `<spawn_argv...> --worker --cache-dir <dir>
/// --lease-ttl <s> --quiet`, stdout to /dev/null (progress is the
/// coordinator's job; stderr stays inherited for real errors).
long long spawn_worker_process(const DistributedOptions& options) {
  std::vector<std::string> argv = options.spawn_argv;
  argv.emplace_back("--worker");
  argv.emplace_back("--cache-dir");
  argv.push_back(options.cache_dir);
  argv.emplace_back("--lease-ttl");
  argv.push_back(std::to_string(
      static_cast<double>(options.lease_ttl.count()) / 1000.0));
  argv.emplace_back("--quiet");
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, pid < 0)
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::close(devnull);
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (auto& arg : argv) cargv.push_back(arg.data());
  cargv.push_back(nullptr);
  ::execvp(cargv[0], cargv.data());
  ::_exit(127);
}

}  // namespace
#endif  // !_WIN32

CampaignResult run_campaign_workers(const Scenario& scenario,
                                    const DistributedOptions& options) {
#ifdef _WIN32
  (void)scenario;
  (void)options;
  throw std::runtime_error(
      "campaign: multi-process execution requires a POSIX host");
#else
  if (options.cache_dir.empty()) {
    throw std::invalid_argument(
        "campaign: --workers requires a result cache (it is the "
        "coordination medium); drop --no-cache");
  }
  if (options.workers == 0) {
    throw std::invalid_argument("campaign: --workers must be >= 1");
  }
  if (!options.spawn && options.spawn_argv.empty()) {
    throw std::invalid_argument(
        "campaign: spawn_argv (or a spawn hook) is required to exec "
        "workers");
  }

  const auto specs = scenario.expand();
  ResultCache cache(options.cache_dir);
  LeaseDir leases(options.cache_dir, options.lease_ttl);
  std::vector<std::string> keys;
  keys.reserve(specs.size());
  for (const auto& spec : specs) keys.push_back(spec.cache_key());
  // A fresh campaign grants previously failed points a fresh budget.
  leases.clear_failures(keys);

  CampaignResult out;
  out.points = specs.size();
  ProgressStream progress(options.progress, specs.size());

  std::vector<PointRun> runs(specs.size());
  std::vector<char> done(specs.size(), 0);
  std::size_t completed = 0;
  // Points already published before this run count as cached, exactly
  // like run_campaign's pass 1 — that is what makes a re-run's summary
  // line greppable for "0 executed".
  for (std::size_t i = 0; i < specs.size(); ++i) {
    runs[i].spec = specs[i];
    if (auto hit = cache.load(specs[i])) {
      runs[i].result = std::move(*hit);
      runs[i].cached = true;
      done[i] = 1;
      ++completed;
      progress.announce(runs[i], "cached");
    }
  }

  const auto spawn = options.spawn
                         ? options.spawn
                         : std::function<long long()>([&options] {
                             return spawn_worker_process(options);
                           });
  std::vector<long long> children;
  if (completed < specs.size()) {
    for (unsigned i = 0; i < options.workers; ++i) {
      const long long pid = spawn();
      if (pid > 0) children.push_back(pid);
    }
    if (children.empty()) {
      throw std::runtime_error("campaign: could not spawn any worker");
    }
  }
  unsigned respawns_left =
      options.max_respawns != 0 ? options.max_respawns : 3 * options.workers;

  // Stream completions as they land in the shared cache, keep the
  // worker fleet alive while pending work remains, and stop when every
  // point is published, failed, or unreachable (no workers left).
  while (completed < specs.size()) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (done[i]) continue;
      if (auto hit = cache.load(specs[i])) {
        runs[i].result = std::move(*hit);
        done[i] = 1;
        ++completed;
        progress.announce(runs[i], "done");
      } else if (auto verdict = leases.load_failure(keys[i])) {
        apply_failure_verdict(runs[i], *verdict);
        done[i] = 1;
        ++completed;
        progress.announce(runs[i], "FAILED");
      }
    }
    if (completed == specs.size()) break;

    for (auto it = children.begin(); it != children.end();) {
      int status = 0;
      const pid_t reaped = ::waitpid(static_cast<pid_t>(*it), &status, WNOHANG);
      if (reaped <= 0) {
        ++it;
        continue;
      }
      it = children.erase(it);
      // Any exit while points are still pending is abnormal — a healthy
      // worker only exits once the whole grid is done.  Its in-flight
      // lease goes stale and is stolen; keep the fleet at strength.
      if (respawns_left > 0) {
        --respawns_left;
        const long long pid = spawn();
        if (pid > 0) children.push_back(pid);
      }
    }
    if (children.empty()) break;  // crash-looped out of respawns
    std::this_thread::sleep_for(options.poll);
  }

  // Workers exit on their own once they observe a fully done grid; give
  // them a grace period, then escalate.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::max(options.poll * 50,
                                 std::chrono::milliseconds(5000));
  bool nudged = false;
  while (!children.empty()) {
    for (auto it = children.begin(); it != children.end();) {
      int status = 0;
      if (::waitpid(static_cast<pid_t>(*it), &status, WNOHANG) > 0) {
        it = children.erase(it);
      } else {
        ++it;
      }
    }
    if (children.empty()) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      for (const auto pid : children) {
        ::kill(static_cast<pid_t>(pid), nudged ? SIGKILL : SIGTERM);
      }
      if (nudged) {
        for (const auto pid : children) {
          int status = 0;
          ::waitpid(static_cast<pid_t>(pid), &status, 0);
        }
        children.clear();
        break;
      }
      nudged = true;
    }
    std::this_thread::sleep_for(options.poll);
  }

  // Anything still unpublished lost every worker (and every respawn).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (done[i]) continue;
    runs[i].failed = true;
    runs[i].error = "point never completed: all workers exited";
    progress.announce(runs[i], "FAILED");
  }

  finish(out, scenario, runs);
  // No stranded lease files after a clean campaign: drop leftovers from
  // workers killed between publish and release, and the directory
  // itself once empty.
  leases.sweep(keys);
  return out;
#endif  // _WIN32
}

}  // namespace cfm::campaign
