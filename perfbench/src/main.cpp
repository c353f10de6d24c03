//===- perfbench/src/main.cpp - The repository benchmark's entry point ----===//
//
// perfbench --workload cold_synth|bulk_fold|serve_mix --seed N
//           --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one workload in fresh temporary directories and prints a report:
// the run environment, the workload's tables and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs report the per-layer
// metrics, each layer's self time as a share of the workload's wall time
// and span coverage, and write the spans as Chrome trace-event JSON.
// Exit status is non-zero when any checked output differed from the
// interpreter.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "support/Args.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Got) {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_synth|bulk_fold|serve_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]  "
               "(bad argument '%s')\n",
               Got);
  return 2;
}

/// Spans kept in the Chrome trace file; the analysis uses all of them.
constexpr size_t MaxExportedSpans = 100000;

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(argv[I]);
    const char *V = argv[++I];
    unsigned U = 0;
    if (A == "--workload")
      Opts.Workload = V;
    else if (A == "--seed" && grassp::parseSeed(V, &Opts.Seed))
      continue;
    else if (A == "--seconds" && grassp::parseUnsigned(V, &U) && U > 0)
      Opts.Seconds = U;
    else if (A == "--trace" && (!std::strcmp(V, "0") || !std::strcmp(V, "1")))
      Opts.Trace = V[0] == '1';
    else if (A == "--trace-out")
      Opts.TraceOut = V;
    else
      return usage(V);
  }
  int (*Run)(const Options &, RunDirs &, Report &) = nullptr;
  if (Opts.Workload == "cold_synth")
    Run = runColdSynth;
  else if (Opts.Workload == "bulk_fold")
    Run = runBulkFold;
  else if (Opts.Workload == "serve_mix")
    Run = runServeMix;
  else
    return usage(Opts.Workload.c_str());

  Report R;
  if (!recordEnvironment(Opts, R))
    return 2;
  int Rc = 0;
  {
    RunDirs Dirs(Opts);
    Tracer::get().setEnabled(Opts.Trace);
    int64_t T0 = nowNs();
    Rc = Run(Opts, Dirs, R);
    int64_t T1 = nowNs();
    Tracer::get().setEnabled(false);
    if (Opts.Trace && Rc == 0) {
      Tracer &T = Tracer::get();
      double Cov = T.coverage(T0, T1);
      R.metric("trace.coverage", Cov, "share");
      std::printf("trace: %zu spans cover %.1f%% of the %.2f s workload; "
                  "self time per layer:",
                  T.spanCount(), Cov * 100, (T1 - T0) * 1e-9);
      for (const auto &[Module, Sec] : T.selfSeconds()) {
        std::printf(" %s %.3fs", Module.c_str(), Sec);
        R.metric(Module + ".self_share", Sec / ((T1 - T0) * 1e-9), "share");
      }
      std::printf("\n");
      if (!Opts.TraceOut.empty()) {
        if (!T.writeChrome(Opts.TraceOut, MaxExportedSpans)) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       Opts.TraceOut.c_str());
          Rc = 1;
        } else {
          std::printf("trace: wrote %s\n", Opts.TraceOut.c_str());
        }
      }
    }
  }
  std::printf("checked %u operations, %u failed\n", R.attempted(),
              R.failed());
  if (Rc != 0 && R.attempted() == 0)
    return Rc;
  std::printf("%s\n", R.finalJson().c_str());
  std::fflush(stdout);
  return R.failed() != 0 ? 1 : Rc;
}
