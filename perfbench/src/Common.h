//===- perfbench/src/Common.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// What every workload shares: the command-line options, the per-run
// temporary directories, the report (metrics, checked operations, run
// environment) and the small statistics helpers.
//
// A workload checks every output it measures against the lang
// interpreter and records the comparison with Report::check(); a
// mismatch is a failed operation and makes the run exit non-zero.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/Random.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seeds named for later claims: tune on the development seed, confirm
/// on the held-out seed (README.md, "Environment and seeds").
inline constexpr uint64_t DevSeed = 1;
inline constexpr uint64_t HeldOutSeed = 20261017;

struct Options {
  std::string Workload;
  uint64_t Seed = DevSeed;
  unsigned Seconds = 20;
  bool Trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string TraceOut;
};

/// Fresh temporary directories for one run under .bench_run/ (relative to
/// the working directory, so Unix socket paths in it stay short),
/// removed by the destructor: the JIT object cache, TMPDIR for the host
/// compiler and the workload files; fresh() makes more (a JIT cache per
/// cold_synth pass, a cache directory per serve_mix server). The
/// constructor points GRASSP_JIT_CACHE_DIR and TMPDIR into it, so no
/// state survives from an earlier run.
class RunDirs {
public:
  explicit RunDirs(const Options &Opts);
  ~RunDirs();
  RunDirs(const RunDirs &) = delete;
  RunDirs &operator=(const RunDirs &) = delete;

  /// A new empty directory under the run root (e.g. a fresh JIT cache
  /// per pass); removed with the root.
  std::string fresh(const std::string &Stem);
  /// Points GRASSP_JIT_CACHE_DIR at \p Dir.
  static void useJitCache(const std::string &Dir);

  std::string Root, Jit, Tmp, Files;

private:
  unsigned Counter = 0;
};

/// Metrics, checked operations and environment notes of one run.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// One checked operation; on mismatch prints \p Describe() to stderr.
  /// Thread-safe (serve_mix clients check concurrently).
  template <class F> void check(bool Ok, F Describe) {
    ++Attempted;
    if (!Ok)
      mismatch(Describe());
  }
  /// A "key: value" line of the run environment / seeded draws.
  void env(const std::string &Key, const std::string &Value);

  unsigned attempted() const { return Attempted; }
  unsigned failed() const { return Failed; }
  /// The single JSON object the benchmark prints last.
  std::string finalJson() const;

private:
  void mismatch(const std::string &What);

  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::atomic<unsigned> Attempted{0};
  std::atomic<unsigned> Failed{0};
};

/// Records the build, host and seed facts every report carries; false
/// when the build must not be benchmarked (Debug or sanitized).
bool recordEnvironment(const Options &Opts, Report &R);

unsigned detectedNproc();
double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
std::string joinNames(const std::vector<std::string> &Names);
/// runtime.tier.<tier>: how many of \p Tiers (execTierName per program)
/// name each execution tier.
void tierMetrics(Report &R, const std::vector<std::string> &Tiers);
/// Seeded Fisher-Yates shuffle.
template <class T> void shuffle(std::vector<T> &V, uint64_t Seed) {
  grassp::Rng Rand(Seed);
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rand.bounded(I)]);
}
/// Monotonic nanoseconds (steady_clock).
int64_t nowNs();

int runColdSynth(const Options &Opts, RunDirs &Dirs, Report &R);
int runBulkFold(const Options &Opts, RunDirs &Dirs, Report &R);
int runServeMix(const Options &Opts, RunDirs &Dirs, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
