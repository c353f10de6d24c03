//===- perfbench/src/BulkFold.cpp - The bulk_fold workload ----------------===//
//
// Large seeded inputs folded four ways, interleaved rep by rep: serially
// (CompiledProgram::runSerial), on the thread pool (runtime::runParallel
// with nproc threads), and through dist::DistCoordinator::run over the
// in-memory segments (a per-run sealed-memfd copy) and over the binary
// workload file's SegmentSource (workers map the file itself). Synthesis,
// the jit compile, input generation and the file write happen in set-up,
// one program at a time; with the program's dist pool start (forked at
// each of its timed visits; the median) each is one sample of setup_s. The
// interpreter's reference answers are computed after set-up, on nproc
// threads, and are not part of it.
//
// latency_ms is the geomean over programs and the four modes of the
// median fold time; ops_per_s is folds per second of folding, all modes
// together. Every fold output is checked against lang::runSerial on the
// same input. The pool and dist wall times are printed beside the LPT
// makespan of the pool's measured per-shard times (a prediction, never
// gated on).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "dist/Coordinator.h"
#include "jit/NativeKernel.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/Runner.h"
#include "runtime/SegmentSource.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"
#include "synth/Grassp.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

using namespace grassp;

namespace perfbench {

namespace {

/// B1-B4: bench/bench_dist.cpp's slice without its bag program. The
/// interpreter's bag fold costs O(elements so far) per step (~15 us per
/// element at 8K elements), so no bulk-size count_distinct input can be
/// checked against it; cold_synth and serve_mix check it on small ones.
const char *const FoldPrograms[] = {"sum",       "count_gt",  "max_elem",
                                    "second_max", "average",  "is_sorted",
                                    "count_102",  "max_dist_ones"};

/// Elements per program input. Pool runs measure ~0.7 ns/elem, so one
/// lasts ~1.5 ms on 4 threads: over a hundred thread wake-ups (~10 us).
constexpr size_t Elems = size_t{1} << 21;
constexpr unsigned Shards = 16;
constexpr unsigned Visits = 6;

enum Mode { MSerial, MPool, MDistMem, MDistFile, NumModes };
const char *const ModeNames[NumModes] = {"serial", "pool", "dist_mem",
                                         "dist_file"};

struct Job {
  const lang::SerialProgram *Prog = nullptr;
  synth::SynthesisResult Synth;
  std::unique_ptr<runtime::CompiledPlan> Plan;
  std::vector<int64_t> Data;
  std::vector<runtime::SegmentView> Segs;
  std::unique_ptr<runtime::MmapFileSource> File;
  std::unique_ptr<dist::DistCoordinator> Coord;
  int64_t Expected = 0;
  double SetupSec = 0, InterpSec = 0;
  std::vector<double> PrewarmSec; // one dist pool start per visit.
  unsigned Reps = 0;

  std::array<std::vector<double>, NumModes> Sec; // wall per rep.
  std::vector<double> PoolMakespan, PoolMerge, PoolWait, PoolPredict;
  std::vector<double> TaskFrames, PublishFrames;
  uint64_t BytesShipped = 0, DistElems = 0;
  unsigned Retries = 0, SerialRefolds = 0;
};

uint64_t inputSeed(uint64_t Seed, size_t Index) {
  return Seed * 0x9e3779b97f4a7c15ULL + Index + 1;
}

/// One program's set-up: synthesis, the jit compile, the input and its
/// binary workload file. With the dist pool start (prewarm) it is one
/// setup_s sample.
bool setUp(Job &J, size_t Index, const Options &Opts, RunDirs &Dirs,
           Report &R) {
  Stopwatch Setup;
  const std::string Name = J.Prog->Name;
  {
    Span S("synth", "synthesize", Name);
    J.Synth = synth::synthesize(*J.Prog);
  }
  R.check(J.Synth.Success && J.Synth.Group == J.Prog->ExpectedGroup, [&] {
    return Name + ": synthesized group '" + J.Synth.Group + "', expected " +
           J.Prog->ExpectedGroup;
  });
  if (!J.Synth.Success)
    return false;
  double CompileSec;
  {
    Span S("jit", "CompiledPlan", Name);
    Stopwatch W;
    J.Plan = std::make_unique<runtime::CompiledPlan>(*J.Prog, J.Synth.Plan);
    CompileSec = W.seconds();
  }
  {
    Span S("runtime", "generateWorkload", Name);
    J.Data = runtime::generateWorkload(*J.Prog, Elems,
                                       inputSeed(Opts.Seed, Index));
    J.Segs = runtime::partition(J.Data, Shards);
  }
  {
    Span S("runtime", "BinaryWorkloadWriter", Name);
    std::string Path = Dirs.Files + "/" + Name + ".bin";
    runtime::BinaryWorkloadWriter Out(Path);
    Out.append(J.Data);
    Out.close();
    runtime::SourceOptions SO;
    SO.ChunkElems = (J.Data.size() + Shards - 1) / Shards;
    SO.MinChunks = Shards;
    J.File = std::make_unique<runtime::MmapFileSource>(Path, SO);
  }
  J.SetupSec = Setup.seconds();
  std::printf("setup %-15s %s %zu elements, tier %s, synth %.2fs, "
              "compile %.3fs, total %.2fs\n",
              Name.c_str(), J.Synth.Group.c_str(), J.Data.size(),
              runtime::execTierName(J.Plan->compiled().tier()),
              J.Synth.SynthSeconds, CompileSec, J.SetupSec);
  std::fflush(stdout);
  return true;
}

/// The interpreter's answer for every input, nproc programs at a time.
void computeReferences(std::vector<std::unique_ptr<Job>> &Jobs) {
  Span Phase("bench", "bulk_fold.reference");
  std::atomic<size_t> Next{0};
  uint64_t Parent = Phase.id();
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
      Job &J = *Jobs[I];
      Span S("lang", "runSerial", J.Prog->Name, Parent);
      Stopwatch W;
      J.Expected = lang::runSerial(*J.Prog, J.Data);
      J.InterpSec = W.seconds();
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != detectedNproc(); ++T)
    Threads.emplace_back(Work);
  for (std::thread &T : Threads)
    T.join();
}

void foldOnce(Job &J, Mode M, ThreadPool &Pool, Report &R) {
  const std::string &Name = J.Prog->Name;
  int64_t Out = 0;
  Stopwatch W;
  switch (M) {
  case MSerial: {
    Span S("runtime", "runSerial", Name);
    Out = J.Plan->compiled().runSerial(J.Segs);
    J.Sec[M].push_back(W.seconds());
    break;
  }
  case MPool: {
    runtime::ParallelRunResult Run;
    {
      Span S("runtime", "runParallel", Name);
      Run = runtime::runParallel(*J.Plan, J.Segs, &Pool);
    }
    double Wall = W.seconds();
    J.Sec[M].push_back(Wall);
    Out = Run.Output;
    // The shards' LPT makespan on the pool's threads is the compute on
    // the critical path; what the wall adds beyond it and the merge is
    // the pool's own wait (wake-up, queueing, imbalance).
    double Makespan = runtime::makespan(Run.WorkerSeconds, Pool.size());
    J.PoolMakespan.push_back(Makespan);
    J.PoolMerge.push_back(Run.MergeSeconds);
    J.PoolWait.push_back(std::max(0.0, Wall - Makespan - Run.MergeSeconds));
    J.PoolPredict.push_back(Makespan + Run.MergeSeconds);
    break;
  }
  case MDistMem:
  case MDistFile: {
    dist::DistRunReport Rep;
    {
      Span S("dist", M == MDistMem ? "run(segments)" : "run(source)", Name);
      Rep = M == MDistMem ? J.Coord->run(J.Segs) : J.Coord->run(*J.File);
    }
    J.Sec[M].push_back(W.seconds());
    Out = Rep.Output;
    J.TaskFrames.push_back(Rep.TaskFrames);
    J.PublishFrames.push_back(Rep.PublishFrames);
    J.BytesShipped += Rep.BytesShipped;
    J.DistElems += J.Data.size();
    J.Retries += Rep.Retries;
    J.SerialRefolds += Rep.SerialRefolds;
    break;
  }
  case NumModes:
    break;
  }
  R.check(Out == J.Expected, [&] {
    return Name + " " + ModeNames[M] + ": got " + std::to_string(Out) +
           ", interpreter " + std::to_string(J.Expected);
  });
}

/// Serial fold time on tier \p T (median of 3).
double tierSeconds(const Job &J, runtime::ExecTier T, Report &R) {
  std::vector<double> Sec;
  for (int Rep = 0; Rep != 3; ++Rep) {
    Span S("runtime", "runSerialTier", J.Prog->Name);
    Stopwatch W;
    int64_t Out = J.Plan->compiled().runSerialTier(T, J.Segs);
    Sec.push_back(W.seconds());
    R.check(Out == J.Expected, [&] {
      return J.Prog->Name + " tier " + runtime::execTierName(T) +
             ": output differs from the interpreter";
    });
  }
  return median(Sec);
}

double sumOfMedians(const std::vector<std::unique_ptr<Job>> &Jobs,
                    std::vector<double> Job::*Field) {
  double S = 0;
  for (const auto &J : Jobs)
    S += median((*J).*Field);
  return S;
}

} // namespace

int runBulkFold(const Options &Opts, RunDirs &Dirs, Report &R) {
  const unsigned P = detectedNproc();
  R.env("programs", std::to_string(std::size(FoldPrograms)) + " x " +
                        std::to_string(Elems) + " elements, " +
                        std::to_string(Shards) + " shards");
  R.env("pool_threads", std::to_string(P));
  R.env("dist_workers", std::to_string(P));

  // Set-up, one program at a time.
  jit::JitStats Jit0 = jit::KernelCache::instance().stats();
  std::vector<std::unique_ptr<Job>> Jobs;
  std::string Tiers;
  {
    Span Phase("bench", "bulk_fold.setup");
    for (const char *Name : FoldPrograms) {
      auto J = std::make_unique<Job>();
      J->Prog = lang::findBenchmark(Name);
      if (!J->Prog || !setUp(*J, Jobs.size(), Opts, Dirs, R)) {
        R.check(false, [&] { return std::string(Name) + ": set-up failed"; });
        return 1;
      }
      Tiers += std::string(Tiers.empty() ? "" : ",") + Name + "=" +
               runtime::execTierName(J->Plan->compiled().tier());
      Jobs.push_back(std::move(J));
    }
  }
  computeReferences(Jobs);
  jit::JitStats Jit1 = jit::KernelCache::instance().stats();
  R.env("tiers", Tiers);

  // Timed phase: Visits passes over the programs; each visit runs the
  // four modes interleaved rep by rep for an equal share of the budget.
  // Spreading a program's reps over the whole run keeps its median
  // unmoved by a slow stretch of the host shorter than half the run;
  // measured one block per program, a slow stretch moved whole programs.
  // The visit's dist pool is forked first, while this process has no
  // other thread (DistCoordinator::prewarm's fork-safety note), and shut
  // down after it, so no idle pool heartbeats while another program is
  // measured (idle pools of all eight cost serial folds ~25%).
  const double Budget = Opts.Seconds;
  const size_t Slots = Visits * Jobs.size();
  Stopwatch Timed;
  {
    Span Phase("bench", "bulk_fold.timed");
    for (size_t Slot = 0; Slot != Slots; ++Slot) {
      Job &J = *Jobs[Slot % Jobs.size()];
      {
        Span S("dist", "prewarm", J.Prog->Name);
        Stopwatch W;
        dist::DistConfig DC;
        DC.Workers = P;
        J.Coord = std::make_unique<dist::DistCoordinator>(*J.Plan, DC);
        std::fflush(nullptr); // workers must not repeat buffered lines.
        J.Coord->prewarm();
        J.PrewarmSec.push_back(W.seconds());
      }
      ThreadPool Pool(P);
      const double Until =
          Budget * static_cast<double>(Slot + 1) / static_cast<double>(Slots);
      for (unsigned Rep = 0; Rep == 0 || Timed.seconds() < Until; ++Rep) {
        for (unsigned K = 0; K != NumModes; ++K)
          foldOnce(J, static_cast<Mode>((K + J.Reps) % NumModes), Pool, R);
        ++J.Reps;
      }
      J.Coord.reset();
    }
  }

  // Per program medians; end-to-end metrics are geomeans over programs.
  std::printf("\n%-15s %9s %9s %9s %9s | %8s %8s %8s %8s | %6s %6s %6s\n",
              "ns/elem", "serial", "pool", "dist_mem", "dist_file", "pool",
              "dist_mem", "dist_fil", "lpt", "pool", "mem", "file");
  std::array<std::vector<double>, NumModes> NsPerElem;
  std::vector<double> FoldMs;
  double FoldSec = 0;
  size_t Folds = 0;
  std::vector<double> PoolErr, MemErr, FileErr, Speedup;
  for (const auto &J : Jobs) {
    double Med[NumModes];
    for (unsigned K = 0; K != NumModes; ++K) {
      Med[K] = median(J->Sec[K]);
      NsPerElem[K].push_back(Med[K] * 1e9 / J->Data.size());
      FoldMs.push_back(Med[K] * 1e3);
      for (double Sec : J->Sec[K])
        FoldSec += Sec;
      Folds += J->Sec[K].size();
    }
    double Pred = median(J->PoolPredict);
    PoolErr.push_back(Med[MPool] / Pred);
    MemErr.push_back(Med[MDistMem] / Pred);
    FileErr.push_back(Med[MDistFile] / Pred);
    Speedup.push_back(Med[MSerial] / Med[MPool]);
    std::printf("%-15s %9.3f %9.3f %9.3f %9.3f | %8.3f %8.3f %8.3f %8.3f | "
                "%+5.0f%% %+5.0f%% %+5.0f%%\n",
                J->Prog->Name.c_str(), NsPerElem[MSerial].back(),
                NsPerElem[MPool].back(), NsPerElem[MDistMem].back(),
                NsPerElem[MDistFile].back(), Med[MPool] * 1e3,
                Med[MDistMem] * 1e3, Med[MDistFile] * 1e3, Pred * 1e3,
                (PoolErr.back() - 1) * 100, (MemErr.back() - 1) * 100,
                (FileErr.back() - 1) * 100);
  }
  std::printf("(%u reps of the first program; medians; middle columns: "
              "wall ms; lpt = LPT makespan of the pool's per-shard times on "
              "%u threads plus merge, a prediction; right columns: measured "
              "/ lpt - 1)\n",
              Jobs.front()->Reps, P);
  std::printf("geomean ns/elem: serial %.3f, pool %.3f, dist_mem %.3f, "
              "dist_file %.3f\n\n",
              geomean(NsPerElem[MSerial]), geomean(NsPerElem[MPool]),
              geomean(NsPerElem[MDistMem]), geomean(NsPerElem[MDistFile]));

  std::vector<double> SetupSec;
  for (const auto &J : Jobs)
    SetupSec.push_back(J->SetupSec + median(J->PrewarmSec));
  R.metric("setup_s", median(SetupSec), "s");
  R.metric("latency_ms", geomean(FoldMs), "ms");
  R.metric("ops_per_s", static_cast<double>(Folds) / FoldSec, "1/s");
  if (!Opts.Trace)
    return 0;

  // Per-layer split (traced run only).
  const runtime::ExecTier AllTiers[] = {
      runtime::ExecTier::Specialized, runtime::ExecTier::Native,
      runtime::ExecTier::LoopVM, runtime::ExecTier::PerElement};
  std::vector<std::string> TierNames;
  std::vector<double> DefaultOverBest;
  for (const auto &J : Jobs) {
    const runtime::CompiledProgram &CP = J->Plan->compiled();
    TierNames.push_back(runtime::execTierName(CP.tier()));
    double Best = 1e300, Default = 0;
    for (runtime::ExecTier T : AllTiers) {
      if (!CP.tierAvailable(T))
        continue;
      double Sec = tierSeconds(*J, T, R);
      Best = std::min(Best, Sec);
      if (T == CP.tier())
        Default = Sec;
    }
    DefaultOverBest.push_back(Default / Best);
  }
  tierMetrics(R, TierNames);
  R.metric("runtime.default_over_best", geomean(DefaultOverBest), "ratio");
  double PoolWall = 0;
  for (const auto &J : Jobs)
    PoolWall += median(J->Sec[MPool]);
  std::printf("pool: LPT makespan %.2f ms, merge %.2f ms, wait %.2f ms of "
              "%.2f ms wall (sums of per-program medians)\n",
              sumOfMedians(Jobs, &Job::PoolMakespan) * 1e3,
              sumOfMedians(Jobs, &Job::PoolMerge) * 1e3,
              sumOfMedians(Jobs, &Job::PoolWait) * 1e3, PoolWall * 1e3);
  R.metric("runtime.pool_wait_share",
           sumOfMedians(Jobs, &Job::PoolWait) / PoolWall, "share");
  R.metric("runtime.pool_speedup", geomean(Speedup), "ratio");
  R.metric("runtime.pool_over_lpt", geomean(PoolErr), "ratio");
  R.metric("dist.mem_over_lpt", geomean(MemErr), "ratio");
  R.metric("dist.file_over_lpt", geomean(FileErr), "ratio");

  double Interp = 0;
  std::vector<double> Frames, Publish;
  uint64_t Bytes = 0, DistElems = 0, InterpElems = 0;
  unsigned Retries = 0, Refolds = 0;
  for (const auto &J : Jobs) {
    Interp += J->InterpSec;
    InterpElems += J->Data.size();
    Frames.push_back(median(J->TaskFrames));
    Publish.push_back(median(J->PublishFrames));
    Bytes += J->BytesShipped;
    DistElems += J->DistElems;
    Retries += J->Retries;
    Refolds += J->SerialRefolds;
  }
  R.metric("dist.bytes_shipped_per_elem",
           static_cast<double>(Bytes) / static_cast<double>(DistElems), "B");
  R.metric("dist.task_frames", median(Frames), "count");
  R.metric("dist.publish_frames", median(Publish), "count");
  R.metric("dist.retries", Retries, "count");
  R.metric("dist.serial_refolds", Refolds, "count");
  R.metric("jit.compiles", Jit1.Compiles - Jit0.Compiles, "count");
  R.metric("jit.disk_hits", Jit1.DiskHits - Jit0.DiskHits, "count");
  R.metric("jit.memory_hits", Jit1.MemoryHits - Jit0.MemoryHits, "count");
  R.metric("lang.interp_ns_per_elem",
           Interp * 1e9 / static_cast<double>(InterpElems), "ns");
  return 0;
}

} // namespace perfbench
