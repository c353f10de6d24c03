//===- bench/bench_kernels.cpp - Execution-tier throughput harness --------==//
//
// Microbenchmarks of the fold execution substrate, one row per
// (benchmark, tier): the per-element bytecode VM, the loop-resident VM
// running peephole-optimized bytecode, the jit-compiled native tier
// (absent without a host compiler), and, for the bag program, the
// hash-set distinct kernel, all timed on the same workload so the tier
// speedups are directly comparable. Also measures the distinct kernel's
// scaling ratio time(2N)/time(N) — near 2 for the hash set, near 4 for
// the historical O(n·k) linear scan on duplicate-free data.
//
// Self-contained harness (no google-benchmark): each measurement runs
// enough repetitions to cover a minimum wall-time window and reports the
// best rep, which is the stable statistic for a hot deterministic loop.
//
//   bench_kernels [--json] [--tiers] [--no-native] [--n ELEMS] [--seed S]
//
// --json prints a machine-readable report (consumed by
// scripts/bench_baseline.sh to produce BENCH_kernels.json), including
// each row's no-compiler fallback tier and its time; --tiers
// prints only the tier-selection table with each program's selection
// reason (consumed by scripts/check.sh). --no-native measures the
// no-compiler fallback: every scalar program then selects the loop VM.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "runtime/Kernels.h"
#include "runtime/Workload.h"
#include "support/Timing.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace grassp;
using namespace grassp::runtime;

namespace {

struct Options {
  bool Json = false;
  bool TiersOnly = false;
  bool Native = true;
  size_t N = 1u << 20;
  uint64_t Seed = 99;
};

/// Kernels whose timing sits below this are not measuring an O(N) pass
/// at all: the host compiler collapsed the loop to a closed form (e.g.
/// count's native lane becomes Acc += N), so ns/elem is noise and
/// any speedup against it is nonsense. A real fold cannot beat memory
/// bandwidth (~0.1-0.2 ns per contiguous int64); closed forms sit
/// orders of magnitude below.
constexpr double ClosedFormNsPerElem = 0.05;

/// Keeps the optimizer from deleting the timed fold.
volatile int64_t Sink;

/// Best-of repetitions covering at least \p MinSeconds of wall time.
/// Returns seconds per call.
template <typename Fn> double bestTime(Fn &&F, double MinSeconds = 0.08) {
  double Best = 1e100;
  Stopwatch Total;
  unsigned Reps = 0;
  do {
    Stopwatch T;
    F();
    double S = T.seconds();
    if (S < Best)
      Best = S;
    ++Reps;
  } while (Total.seconds() < MinSeconds || Reps < 3);
  return Best;
}

struct TierRow {
  ExecTier T;
  bool Available = false;
  bool ClosedForm = false;
  double NsPerElem = 0.0;
};

struct BenchRow {
  std::string Name;
  ExecTier Selected;
  std::string Reason;
  /// What a host without a compiler selects (--no-native).
  ExecTier NoNative = ExecTier::LoopVM;
  TierRow Tiers[4];
};

BenchRow measureProgram(const lang::SerialProgram &P, const Options &Opts) {
  CompiledProgram CP(P, Opts.Native);
  BenchRow Row;
  Row.Name = P.Name;
  Row.Selected = CP.tier();
  Row.Reason = CP.selectionReason();
  Row.NoNative = CompiledProgram(P, /*AllowNative=*/false).tier();

  std::vector<int64_t> Data = generateWorkload(P, Opts.N, Opts.Seed);
  std::vector<SegmentView> Segs = {{Data.data(), Data.size()}};

  const ExecTier All[] = {ExecTier::PerElement, ExecTier::LoopVM,
                          ExecTier::Native, ExecTier::Specialized};
  for (unsigned I = 0; I != 4; ++I) {
    Row.Tiers[I].T = All[I];
    if (!CP.tierAvailable(All[I]))
      continue;
    Row.Tiers[I].Available = true;
    ExecTier T = All[I];
    double Sec = bestTime([&] { Sink = CP.runSerialTier(T, Segs); });
    Row.Tiers[I].NsPerElem =
        Opts.N == 0 ? 0.0 : Sec * 1e9 / static_cast<double>(Opts.N);
    Row.Tiers[I].ClosedForm =
        Opts.N != 0 && Row.Tiers[I].NsPerElem < ClosedFormNsPerElem;
  }
  return Row;
}

/// time(2N)/time(N) for the distinct kernel on duplicate-free data (the
/// worst case for a linear membership scan: k grows with n). A linear
/// kernel scales ~2x; the historical O(n·k) scan scaled ~4x.
double distinctScalingRatio(const Options &Opts, size_t *SmallN,
                            double *SmallSec, double *LargeSec) {
  const lang::SerialProgram *P = lang::findBenchmark("count_distinct");
  if (!P)
    return 0.0;
  CompiledProgram CP(*P);
  // Kept small enough that both working sets sit in cache — the ratio
  // should reflect algorithmic scaling, not cache geometry — while the
  // quadratic regime (if reintroduced) would still be unmistakable:
  // at N=64Ki the old scan averaged ~16K comparisons per element.
  size_t N = Opts.N < (1u << 16) ? Opts.N : (1u << 16);
  if (N < 1024)
    N = 1024;
  *SmallN = N;

  auto timeAt = [&](size_t Elems) {
    std::vector<int64_t> Data(Elems);
    for (size_t I = 0; I != Elems; ++I)
      Data[I] = static_cast<int64_t>(I * 2654435761u); // all distinct.
    std::vector<SegmentView> Segs = {{Data.data(), Data.size()}};
    return bestTime([&] { Sink = CP.runSerial(Segs); });
  };
  *SmallSec = timeAt(N);
  *LargeSec = timeAt(2 * N);
  return *SmallSec > 0.0 ? *LargeSec / *SmallSec : 0.0;
}

const char *tierKey(ExecTier T) {
  switch (T) {
  case ExecTier::PerElement:
    return "per_element";
  case ExecTier::LoopVM:
    return "loop_vm";
  case ExecTier::Native:
    return "native";
  case ExecTier::Specialized:
    return "specialized";
  }
  return "?";
}

int run(const Options &Opts) {
  std::vector<BenchRow> Rows;
  for (const lang::SerialProgram &P : lang::allBenchmarks()) {
    if (Opts.TiersOnly) {
      CompiledProgram CP(P, Opts.Native);
      BenchRow R;
      R.Name = P.Name;
      R.Selected = CP.tier();
      R.Reason = CP.selectionReason();
      Rows.push_back(std::move(R));
    } else {
      Rows.push_back(measureProgram(P, Opts));
    }
  }

  if (Opts.TiersOnly) {
    std::printf("%-22s %-12s %s\n", "benchmark", "tier", "reason");
    for (const BenchRow &R : Rows)
      std::printf("%-22s %-12s %s\n", R.Name.c_str(),
                  execTierName(R.Selected), R.Reason.c_str());
    return 0;
  }

  size_t DistSmallN = 0;
  double DistSmall = 0.0, DistLarge = 0.0;
  double DistRatio =
      distinctScalingRatio(Opts, &DistSmallN, &DistSmall, &DistLarge);

  if (Opts.Json) {
    std::printf("{\n");
    std::printf("  \"n\": %zu,\n  \"seed\": %" PRIu64
                ",\n  \"native\": %s,\n",
                Opts.N, Opts.Seed, Opts.Native ? "true" : "false");
    std::printf("  \"benchmarks\": [\n");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const BenchRow &R = Rows[I];
      std::printf("    {\"name\": \"%s\", \"tier\": \"%s\", "
                  "\"reason\": \"%s\"",
                  R.Name.c_str(), execTierName(R.Selected),
                  R.Reason.c_str());
      const TierRow *Per = &R.Tiers[0];
      for (const TierRow &T : R.Tiers) {
        if (!T.Available)
          continue;
        // A sub-resolution timing means the host compiler closed-formed
        // the loop; report that instead of a nonsense speedup.
        if (T.ClosedForm) {
          std::printf(", \"%s\": \"closed-form\"", tierKey(T.T));
          continue;
        }
        std::printf(", \"%s_ns_per_elem\": %.3f", tierKey(T.T), T.NsPerElem);
        if (Per->Available && !Per->ClosedForm &&
            T.T != ExecTier::PerElement && T.NsPerElem > 0.0)
          std::printf(", \"speedup_%s_vs_per_element\": %.2f", tierKey(T.T),
                      Per->NsPerElem / T.NsPerElem);
      }
      // The no-compiler column: the fallback tier and its time, taken
      // from the per-tier measurements above.
      for (const TierRow &T : R.Tiers)
        if (T.Available && T.T == R.NoNative && !T.ClosedForm)
          std::printf(", \"no_native_tier\": \"%s\", "
                      "\"no_native_ns_per_elem\": %.3f",
                      execTierName(T.T), T.NsPerElem);
      std::printf("}%s\n", I + 1 == Rows.size() ? "" : ",");
    }
    std::printf("  ],\n");
    std::printf("  \"distinct_scaling\": {\"n\": %zu, \"t_n_ms\": %.3f, "
                "\"t_2n_ms\": %.3f, \"ratio_2n_over_n\": %.2f}\n",
                DistSmallN, DistSmall * 1e3, DistLarge * 1e3, DistRatio);
    std::printf("}\n");
    return 0;
  }

  std::printf("fold throughput, N=%zu seed=%" PRIu64 "%s (ns/elem; lower "
              "is better)\n",
              Opts.N, Opts.Seed, Opts.Native ? "" : " [--no-native]");
  std::printf("%-22s %-12s %12s %12s %12s %11s\n", "benchmark", "tier",
              "per-elem", "loop-vm", "native", "speedup");
  for (const BenchRow &R : Rows) {
    char Per[32] = "-", Loop[32] = "-", Nat[32] = "-", Sp[32] = "-";
    for (const TierRow &T : R.Tiers) {
      char *Dst = T.T == ExecTier::PerElement ? Per
                  : T.T == ExecTier::LoopVM   ? Loop
                  : T.T == ExecTier::Native   ? Nat
                                              : nullptr;
      if (!T.Available || !Dst)
        continue;
      if (T.ClosedForm)
        std::snprintf(Dst, sizeof(Per), "closed-form");
      else
        std::snprintf(Dst, sizeof(Per), "%.2f", T.NsPerElem);
    }
    // Speedup of the selected tier over the per-element baseline;
    // omitted when either side is a closed form.
    if (R.Tiers[0].Available && !R.Tiers[0].ClosedForm)
      for (const TierRow &T : R.Tiers)
        if (T.Available && T.T == R.Selected && T.NsPerElem > 0.0 &&
            !T.ClosedForm)
          std::snprintf(Sp, sizeof(Sp), "%.2fx",
                        R.Tiers[0].NsPerElem / T.NsPerElem);
    std::printf("%-22s %-12s %12s %12s %12s %11s\n", R.Name.c_str(),
                execTierName(R.Selected), Per, Loop, Nat, Sp);
    // The bag program's only tier is its hash-set kernel.
    const TierRow &Bag = R.Tiers[3];
    if (Bag.Available)
      std::printf("%-35s hash-set kernel %.2f ns/elem\n", "",
                  Bag.NsPerElem);
  }
  std::printf("\ndistinct kernel scaling: time(2N)/time(N) = %.2f at N=%zu "
              "(%.2fms -> %.2fms); ~2 is linear, ~4 was the old O(n*k) "
              "scan\n",
              DistRatio, DistSmallN, DistSmall * 1e3, DistLarge * 1e3);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--json") {
      Opts.Json = true;
    } else if (A == "--tiers") {
      Opts.TiersOnly = true;
    } else if (A == "--no-native") {
      Opts.Native = false;
    } else if (A == "--n" && I + 1 < argc) {
      Opts.N = std::strtoull(argv[++I], nullptr, 10);
    } else if (A == "--seed" && I + 1 < argc) {
      Opts.Seed = std::strtoull(argv[++I], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--tiers] [--no-native] "
                   "[--n ELEMS] [--seed S]\n",
                   argv[0]);
      return 2;
    }
  }
  return run(Opts);
}
