// Shared vocabulary of the benchmark workloads (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (inside the checkout) for reports and caches.
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload invocation measured and checked.
struct Result {
  /// The end-to-end metrics every workload reports (untraced mode).
  std::map<std::string, Metric> end_to_end;
  /// Workload-specific end-to-end figures (printed, not bounded).
  std::map<std::string, Metric> extra;
  /// Per-layer metrics (traced mode); names a workload does not exercise
  /// stay 0.
  std::map<std::string, Metric> layers;
  std::string digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reps = 0;
  std::uint64_t chunks = 0;
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::vector<std::string> reports;  ///< report files for validate_report.py

  void check(bool ok, const std::string& what, const std::string& detail = "") {
    if (!ok) failed_checks.emplace_back(what, detail);
  }
  void layer(const std::string& name, double value) {
    layers.at(name).value = value;  // throws on a name outside the table
  }
};

/// splitmix64 of (seed, tag): an independent input stream per consumer.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// Writes `text` to `path`; returns false on failure.
bool write_file(const std::string& path, const std::string& text);

/// Host times of one repetition of a workload.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;     ///< the interval the rates divide
  double cached_s = 0.0;  ///< the step cached_points_per_s divides
  std::vector<double> chunk_ms;
  /// The pieces that tile run_s where they are more than the chunks
  /// (campaign: a point's run_point through its cache store); empty means
  /// the chunks themselves.
  std::vector<double> piece_ms;
};

/// What every repetition of a workload does (the digest check makes sure
/// it is the same work each time).
struct Work {
  double requests = 0.0;  ///< resolved within run_s
  double cycles = 0.0;    ///< simulated within run_s
  double points = 0.0;    ///< points_per_s numerator
  double cached_points = 0.0;
  /// points_per_s divides setup_s + run_s (one point is one whole pass).
  bool points_over_pass = false;
  /// run_s is its chunks, one after the other, plus a remainder.
  bool chunks_tile_run = false;
};

/// Simulated figures; for a seed they are the same in every repetition.
struct SimFigures {
  double ops_per_kcycle = 0.0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double goodput = 0.0;
};

/// Chunks one repetition needs for a p99 with ten chunks beyond it.
inline constexpr std::size_t kMinChunks = 1000;

/// Fills the end-to-end metrics.  Every host figure is the least time the
/// run saw for each piece of the work.  setup_s is the least set-up of
/// the repetitions.  The chunk percentiles run over each chunk's least
/// time across the repetitions (every repetition must split the work into
/// the same chunks).  Where the pieces (Rep::piece_ms, or the chunks) tile
/// run_s, the rates divide the sum of each piece's least time plus the
/// least remainder; otherwise they divide the least run_s.  Host speed
/// swings by a third from one stretch of seconds to the next, so a median
/// follows the swing while the least time of a piece seen tens of times
/// stays put: between two sets of ten runs on hier_bsp the median set-up
/// moved by 0.28 and the least run times by 0.05.
void set_end_to_end(Result& r, const std::vector<Rep>& reps, const Work& work,
                    const SimFigures& sim);

/// True while the measuring loop should start another repetition: at
/// least two (the digest must repeat), then while one more of average
/// length ends within `seconds`.
[[nodiscard]] bool more_reps(std::uint64_t reps, Clock::time_point start,
                             double seconds);

/// Interleaved pairs of passes behind each traced share.
inline constexpr int kSharePairs = 3;

/// Median of kSharePairs calls of `pair_share`, each of which times one
/// pair of passes and returns their share; one pair alone is at the
/// mercy of host noise and can even read negative.
template <class PairShare>
[[nodiscard]] double median_share(PairShare pair_share) {
  std::vector<double> shares;
  for (int i = 0; i < kSharePairs; ++i) shares.push_back(pair_share());
  return median(std::move(shares));
}

void run_serve(const Options& opt, Tracer& tracer, Result& result);
void run_hier(const Options& opt, Tracer& tracer, Result& result);
void run_campaign(const Options& opt, Tracer& tracer, Result& result);

}  // namespace perfbench
