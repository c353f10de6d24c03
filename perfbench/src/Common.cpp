//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include "jit/NativeKernel.h"

#include <z3.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <unistd.h>

namespace fs = std::filesystem;

namespace perfbench {

RunDirs::RunDirs(const Options &Opts) {
  Root = ".bench_run/" + Opts.Workload + "-" + std::to_string(::getpid());
  fs::remove_all(Root);
  Jit = Root + "/jit";
  Tmp = Root + "/tmp";
  Files = Root + "/files";
  for (const std::string &D : {Jit, Tmp, Files})
    fs::create_directories(D);
  useJitCache(Jit);
  ::setenv("TMPDIR", fs::absolute(Tmp).c_str(), 1);
}

RunDirs::~RunDirs() {
  std::error_code Ec;
  fs::remove_all(Root, Ec);
  // The parent stays only while another run is using it.
  fs::remove(fs::path(Root).parent_path(), Ec);
}

std::string RunDirs::fresh(const std::string &Stem) {
  std::string D = Root + "/" + Stem + "-" + std::to_string(Counter++);
  fs::create_directories(D);
  return D;
}

void RunDirs::useJitCache(const std::string &Dir) {
  ::setenv("GRASSP_JIT_CACHE_DIR", fs::absolute(Dir).c_str(), 1);
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Report::mismatch(const std::string &What) {
  ++Failed;
  std::fprintf(stderr, "MISMATCH: %s\n", What.c_str());
}

void Report::env(const std::string &Key, const std::string &Value) {
  std::printf("env %-18s %s\n", (Key + ":").c_str(), Value.c_str());
}

std::string Report::finalJson() const {
  std::string S = "{\"correct\": ";
  S += Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0);
    S += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  return S + "}}";
}

bool recordEnvironment(const Options &Opts, Report &R) {
  std::string BuildType = PERFBENCH_BUILD_TYPE;
  std::string Sanitizer;
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  Sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  Sanitizer = "thread";
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
  Sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  Sanitizer = "thread";
#endif
  unsigned Maj = 0, Min = 0, Build = 0, Rev = 0;
  Z3_get_version(&Maj, &Min, &Build, &Rev);
  R.env("workload", Opts.Workload);
  R.env("seed", std::to_string(Opts.Seed) +
                    (Opts.Seed == DevSeed       ? " (development seed)"
                     : Opts.Seed == HeldOutSeed ? " (held-out seed)"
                                                : ""));
  R.env("seconds", std::to_string(Opts.Seconds));
  R.env("trace", Opts.Trace ? "on" : "off");
  R.env("nproc", std::to_string(detectedNproc()));
  R.env("host_compiler", grassp::jit::hostCompilerAvailable()
                             ? grassp::jit::hostCxx()
                             : std::string("none (native tier off)"));
  R.env("z3", std::to_string(Maj) + "." + std::to_string(Min) + "." +
                  std::to_string(Build));
  R.env("build_type", BuildType.empty() ? "(none)" : BuildType);
  R.env("sanitizer", Sanitizer.empty() ? "none" : Sanitizer);
  if (BuildType != "Release" && BuildType != "RelWithDebInfo") {
    std::fprintf(stderr, "error: refusing to benchmark a '%s' build; "
                         "use Release or RelWithDebInfo\n",
                 BuildType.c_str());
    return false;
  }
  if (!Sanitizer.empty()) {
    std::fprintf(stderr, "error: refusing to benchmark a %s-sanitized "
                         "build\n",
                 Sanitizer.c_str());
    return false;
  }
  return true;
}

unsigned detectedNproc() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

std::string joinNames(const std::vector<std::string> &Names) {
  std::string S;
  for (const std::string &N : Names)
    S += (S.empty() ? "" : ",") + N;
  return S;
}

void tierMetrics(Report &R, const std::vector<std::string> &Tiers) {
  for (const char *T : {"specialized", "native", "loop-vm", "per-element"})
    R.metric(std::string("runtime.tier.") + T,
             static_cast<double>(std::count(Tiers.begin(), Tiers.end(), T)),
             "count");
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace perfbench
