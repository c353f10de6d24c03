//===- perfbench/src/ColdSynth.cpp - The cold_synth workload --------------===//
//
// All 27 Table-1 programs, in a seeded order, from nothing to a checked
// answer, the way `grassp synth-all` and a first `grassp run` see them:
//
//   1. synthesis through synth::ParallelDriver with synth-all's options,
//      its signal-source CancelToken included, at jobs = nproc;
//   2. chc::certify of each plan, serially, under CertBudgetMs;
//   3. a runtime::CompiledPlan per plan under a fresh jit object cache;
//   4. one run of each plan on a small seeded input.
//
// Each pass is checked: the plan's group against ExpectedGroup and its
// output against lang::runSerial. latency_ms is the median over programs
// of one program's own time through the four stages (its synthesis task,
// its certification, its compile and its run); ops_per_s is programs
// through all four stages per second of pass wall time. The traced run
// also synthesizes the same programs through synth::synthesize with no
// token, so the ParallelDriver path's per-check cost can be compared with
// the direct path's on identical SMT work (smt.driver_over_direct).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "chc/Certify.h"
#include "jit/NativeKernel.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Runner.h"
#include "support/Cancel.h"
#include "support/Timing.h"
#include "synth/ParallelDriver.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

using namespace grassp;

namespace perfbench {

namespace {

/// CHC budget. Measured certification times (m = 2) cluster at
/// 0.02-0.26 s (18 programs) and at 1.4 s and beyond (count_102 at
/// ~1.4 s, the other B4 programs at 4-30 s); 0.6 s sits a factor of
/// two or more from both clusters, so `certified` does not flip between
/// runs of the same code.
constexpr unsigned CertBudgetMs = 600;
constexpr size_t RunElems = 4096;
constexpr unsigned RunSegments = 4;
constexpr unsigned SetupReps = 31;

struct Input {
  std::vector<int64_t> Data;
  int64_t Expected = 0;
};

/// The set-up a pass depends on: the host-compiler probe and each
/// program's small seeded input. The interpreter answers are computed
/// after set-up, so the reference check's cost stays out of setup_s.
std::vector<Input> setUp(const std::vector<const lang::SerialProgram *> &Progs,
                         uint64_t Seed) {
  Span Phase("bench", "cold_synth.setup");
  {
    Span S("jit", "compilerWorks");
    (void)jit::compilerWorks(jit::hostCxx());
  }
  std::vector<Input> In(Progs.size());
  for (size_t I = 0; I != Progs.size(); ++I) {
    Span S("runtime", "generateWorkload", Progs[I]->Name);
    In[I].Data = runtime::generateWorkload(*Progs[I], RunElems, Seed + I);
  }
  return In;
}

/// Fills each input's interpreter answer; returns the seconds spent.
double computeExpected(const std::vector<const lang::SerialProgram *> &Progs,
                       std::vector<Input> &In) {
  Span Phase("bench", "cold_synth.reference");
  Stopwatch W;
  for (size_t I = 0; I != Progs.size(); ++I) {
    Span S("lang", "runSerial", Progs[I]->Name);
    In[I].Expected = lang::runSerial(*Progs[I], In[I].Data);
  }
  return W.seconds();
}

struct PassResult {
  double Wall = 0, SynthWall = 0, CertifyWall = 0;
  /// Per program: its task's synthesis seconds plus its certify, compile
  /// and run seconds.
  std::vector<double> ProgramSec;
  std::vector<synth::TaskResult> Tasks;
  std::vector<chc::CertifyOutcome> Certs;
  double CompileSec = 0;
  jit::JitStats Jit;
  std::vector<std::string> Tier; // selected tier per program.
  unsigned PlansOk = 0;
};

PassResult runPass(const std::vector<const lang::SerialProgram *> &Progs,
                   const std::vector<Input> &In,
                   const synth::DriverOptions &DO, RunDirs &Dirs,
                   Report &R) {
  Span Phase("bench", "cold_synth.pass");
  PassResult P;
  // A cold jit: a fresh object directory and an empty in-memory map.
  RunDirs::useJitCache(Dirs.fresh("jit"));
  jit::KernelCache::instance().clearMemoryCache();

  {
    Span S("synth", "ParallelDriver::run");
    Stopwatch W;
    P.Tasks = synth::ParallelDriver(DO).run(Progs);
    P.SynthWall = W.seconds();
  }
  P.Certs.resize(Progs.size());
  P.Tier.resize(Progs.size(), "-");
  P.ProgramSec.resize(Progs.size());
  for (size_t I = 0; I != Progs.size(); ++I)
    P.ProgramSec[I] = P.Tasks[I].Result.SynthSeconds;
  std::vector<bool> GroupOk(Progs.size());
  {
    Stopwatch W;
    for (size_t I = 0; I != Progs.size(); ++I) {
      const synth::TaskResult &T = P.Tasks[I];
      GroupOk[I] = T.Status == synth::TaskStatus::Solved &&
                   T.Result.Group == Progs[I]->ExpectedGroup;
      R.check(GroupOk[I], [&] {
        return Progs[I]->Name + ": " + synth::taskStatusName(T.Status) +
               " in group '" + T.Result.Group + "', expected " +
               Progs[I]->ExpectedGroup;
      });
      if (T.Status != synth::TaskStatus::Solved)
        continue;
      Span S("chc", "certify", Progs[I]->Name);
      chc::CertifyOptions CO;
      CO.TimeoutMs = CertBudgetMs;
      Stopwatch C;
      P.Certs[I] = chc::certify(*Progs[I], T.Result.Plan, CO);
      P.ProgramSec[I] += C.seconds();
    }
    P.CertifyWall = W.seconds();
  }

  jit::JitStats Jit0 = jit::KernelCache::instance().stats();
  for (size_t I = 0; I != Progs.size(); ++I) {
    const synth::TaskResult &T = P.Tasks[I];
    if (T.Status != synth::TaskStatus::Solved)
      continue;
    std::unique_ptr<runtime::CompiledPlan> Plan;
    {
      Span S("jit", "CompiledPlan", Progs[I]->Name);
      Stopwatch W;
      Plan = std::make_unique<runtime::CompiledPlan>(*Progs[I],
                                                     T.Result.Plan);
      P.CompileSec += W.seconds();
      P.ProgramSec[I] += W.seconds();
    }
    P.Tier[I] = runtime::execTierName(Plan->compiled().tier());
    int64_t Out = 0;
    {
      Span S("runtime", "runParallel", Progs[I]->Name);
      Stopwatch W;
      Out = runtime::runParallel(*Plan,
                                 runtime::partition(In[I].Data, RunSegments))
                .Output;
      P.ProgramSec[I] += W.seconds();
    }
    bool Ok = Out == In[I].Expected;
    R.check(Ok, [&] {
      return Progs[I]->Name + ": plan output " + std::to_string(Out) +
             ", interpreter " + std::to_string(In[I].Expected);
    });
    P.PlansOk += Ok && GroupOk[I] ? 1 : 0;
  }
  jit::JitStats Jit1 = jit::KernelCache::instance().stats();
  P.Jit.Compiles = Jit1.Compiles - Jit0.Compiles;
  P.Jit.DiskHits = Jit1.DiskHits - Jit0.DiskHits;
  P.Jit.MemoryHits = Jit1.MemoryHits - Jit0.MemoryHits;
  return P;
}

/// The same programs through synthesize() with no CancelToken, nproc
/// at a time; per-program seconds and checks (traced run only).
std::vector<synth::SynthesisResult>
synthesizeDirect(const std::vector<const lang::SerialProgram *> &Progs) {
  Span Phase("bench", "cold_synth.direct");
  std::vector<synth::SynthesisResult> Out(Progs.size());
  std::atomic<size_t> Next{0};
  uint64_t Parent = Phase.id();
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Progs.size();) {
      Span S("synth", "synthesize", Progs[I]->Name, Parent);
      Out[I] = synth::synthesize(*Progs[I]);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != detectedNproc(); ++T)
    Threads.emplace_back(Work);
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

} // namespace

int runColdSynth(const Options &Opts, RunDirs &Dirs, Report &R) {
  std::vector<const lang::SerialProgram *> Progs;
  for (const lang::SerialProgram &P : lang::allBenchmarks())
    Progs.push_back(&P);
  shuffle(Progs, Opts.Seed);
  std::vector<std::string> Order;
  for (const lang::SerialProgram *P : Progs)
    Order.push_back(P->Name);
  R.env("program_order", joinNames(Order));
  R.env("jobs", std::to_string(detectedNproc()));
  R.env("cert_budget_ms", std::to_string(CertBudgetMs));

  std::vector<double> SetupSec;
  std::vector<Input> In;
  for (unsigned K = 0; K != SetupReps; ++K) {
    Stopwatch W;
    In = setUp(Progs, Opts.Seed);
    SetupSec.push_back(W.seconds());
  }
  double InterpSec = computeExpected(Progs, In);

  // synth-all's options: defaults plus the process signal source.
  synth::DriverOptions DO;
  DO.Jobs = detectedNproc();
  DO.Token = installSignalSource();

  // Passes until the budget is spent (at least one). A pass is only
  // started when the last one says it fits.
  std::vector<PassResult> Passes;
  Stopwatch Budget;
  for (;;) {
    Stopwatch W;
    Passes.push_back(runPass(Progs, In, DO, Dirs, R));
    Passes.back().Wall = W.seconds();
    if (Budget.seconds() + W.seconds() > Opts.Seconds)
      break;
  }

  std::vector<double> ProgramSec;
  double PassWall = 0;
  for (const PassResult &P : Passes) {
    ProgramSec.insert(ProgramSec.end(), P.ProgramSec.begin(),
                      P.ProgramSec.end());
    PassWall += P.Wall;
  }

  const PassResult &Last = Passes.back();
  std::printf("\n%-20s %-5s %9s %8s %6s %6s  %-12s %8s  %s\n", "program",
              "group", "synth(s)", "attempts", "cands", "checks", "chc",
              "chc(s)", "tier");
  std::map<std::string, unsigned> TierCount;
  for (size_t I = 0; I != Progs.size(); ++I) {
    const synth::TaskResult &T = Last.Tasks[I];
    std::printf("%-20s %-5s %9.3f %8u %6u %6u  %-12s %8.3f  %s\n",
                Progs[I]->Name.c_str(), T.Result.Group.c_str(),
                T.Result.SynthSeconds, T.Attempts, T.Result.CandidatesTried,
                T.Result.SmtChecks, chc::certStatusName(Last.Certs[I].Status),
                Last.Certs[I].Seconds, Last.Tier[I].c_str());
    ++TierCount[Last.Tier[I]];
  }
  std::string Tiers;
  for (const auto &[Name, N] : TierCount)
    Tiers += (Tiers.empty() ? "" : ",") + Name + "=" + std::to_string(N);
  R.env("tiers", Tiers);
  unsigned Certified = 0;
  for (const chc::CertifyOutcome &C : Last.Certs)
    Certified += C.Status == chc::CertStatus::Certified ? 1 : 0;
  std::printf("(%zu pass%s; last pass: wall %.2fs, synth wall %.2fs, "
              "certify wall %.2fs, jit compile %.2fs, %u certified, %u/%zu "
              "plans in the right group with the interpreter's output)\n\n",
              Passes.size(), Passes.size() == 1 ? "" : "es", Last.Wall,
              Last.SynthWall, Last.CertifyWall, Last.CompileSec, Certified,
              Last.PlansOk, Progs.size());

  R.metric("setup_s", median(SetupSec), "s");
  R.metric("latency_ms", median(ProgramSec) * 1e3, "ms");
  R.metric("ops_per_s", static_cast<double>(ProgramSec.size()) / PassWall,
           "1/s");
  if (!Opts.Trace)
    return 0;

  // Per-layer split of the last pass, plus the direct-path comparison.
  double TaskSum = 0;
  unsigned Cands = 0, Checks = 0, Unknown = 0, Attempts = 0;
  for (const synth::TaskResult &T : Last.Tasks) {
    TaskSum += T.Result.SynthSeconds;
    Cands += T.Result.CandidatesTried;
    Checks += T.Result.SmtChecks;
    Unknown += T.Result.UnknownVerdicts;
    Attempts += T.Attempts;
  }
  std::vector<synth::SynthesisResult> Direct = synthesizeDirect(Progs);
  double DirectSum = 0;
  unsigned DirectChecks = 0;
  for (size_t I = 0; I != Direct.size(); ++I) {
    DirectSum += Direct[I].SynthSeconds;
    DirectChecks += Direct[I].SmtChecks;
    R.check(Direct[I].Success && Direct[I].Group == Progs[I]->ExpectedGroup,
            [&] {
              return Progs[I]->Name + ": direct synthesis landed in '" +
                     Direct[I].Group + "'";
            });
  }
  std::printf("ParallelDriver path: %.3f s/check over %u checks; direct path: "
              "%.3f s/check over %u checks\n",
              TaskSum / Checks, Checks, DirectSum / DirectChecks,
              DirectChecks);

  unsigned CertUnknown = 0, Unsupported = 0, Vars = 0;
  for (const chc::CertifyOutcome &C : Last.Certs) {
    CertUnknown += C.Status == chc::CertStatus::Unknown ? 1 : 0;
    Unsupported += C.Status == chc::CertStatus::Unsupported ? 1 : 0;
    Vars += C.NumVars;
  }
  R.metric("synth.candidates", Cands, "count");
  R.metric("synth.smt_checks", Checks, "count");
  R.metric("synth.smt_checks_direct", DirectChecks, "count");
  R.metric("synth.unknown_verdicts", Unknown, "count");
  R.metric("synth.attempts", Attempts, "count");
  R.metric("smt.driver_over_direct",
           (TaskSum / Checks) / (DirectSum / DirectChecks), "ratio");
  R.metric("chc.certified", Certified, "count");
  R.metric("chc.unknown", CertUnknown, "count");
  R.metric("chc.unsupported", Unsupported, "count");
  R.metric("chc.vars", Vars, "count");
  R.metric("jit.compiles", Last.Jit.Compiles, "count");
  R.metric("jit.disk_hits", Last.Jit.DiskHits, "count");
  R.metric("jit.memory_hits", Last.Jit.MemoryHits, "count");
  tierMetrics(R, Last.Tier);
  size_t InterpElems = 0;
  for (const Input &I : In)
    InterpElems += I.Data.size();
  R.metric("lang.interp_ns_per_elem", InterpSec * 1e9 / InterpElems, "ns");
  return 0;
}

} // namespace perfbench
