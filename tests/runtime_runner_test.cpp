//===- tests/runtime_runner_test.cpp - Runner and workload tests -----------=//

#include "lang/Benchmarks.h"
#include "runtime/Runner.h"
#include "support/ThreadPool.h"
#include "synth/Grassp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

using namespace grassp;
using namespace grassp::runtime;

namespace {

TEST(Partition, CoversDataContiguously) {
  std::vector<int64_t> Data(103);
  std::iota(Data.begin(), Data.end(), 0);
  for (unsigned M : {1u, 2u, 7u, 103u}) {
    std::vector<SegmentView> Segs = partition(Data, M);
    ASSERT_EQ(Segs.size(), M);
    size_t Total = 0;
    const int64_t *Expect = Data.data();
    for (const SegmentView &S : Segs) {
      EXPECT_GE(S.Size, 1u);
      EXPECT_EQ(S.Data, Expect);
      Expect += S.Size;
      Total += S.Size;
    }
    EXPECT_EQ(Total, Data.size());
    // Near-equal: sizes differ by at most one.
    size_t Mn = Segs[0].Size, Mx = Segs[0].Size;
    for (const SegmentView &S : Segs) {
      Mn = std::min(Mn, S.Size);
      Mx = std::max(Mx, S.Size);
    }
    EXPECT_LE(Mx - Mn, 1u);
  }
}

// The precondition is a real runtime check, not an assert: Release
// builds must also refuse shapes that would yield empty segments.
TEST(Partition, RejectsDegenerateShapes) {
  std::vector<int64_t> Data(5, 1);
  EXPECT_THROW(partition(Data, 0), std::invalid_argument);
  EXPECT_THROW(partition(Data, 6), std::invalid_argument);
  EXPECT_THROW(partition({}, 1), std::invalid_argument);
  EXPECT_NO_THROW(partition(Data, 5));
}

TEST(Partition, SegmentsFromLengthsAllowsEmptyButChecksTotal) {
  std::vector<int64_t> Data = {1, 2, 3};
  std::vector<SegmentView> Segs = segmentsFromLengths(Data, {0, 2, 0, 1});
  ASSERT_EQ(Segs.size(), 4u);
  EXPECT_EQ(Segs[0].Size, 0u);
  EXPECT_EQ(Segs[1].Size, 2u);
  EXPECT_EQ(Segs[3].Data[0], 3);
  EXPECT_THROW(segmentsFromLengths(Data, {1, 1}), std::invalid_argument);
}

TEST(Makespan, LptBasics) {
  // One worker: makespan is the sum.
  EXPECT_DOUBLE_EQ(makespan({1, 2, 3}, 1), 6.0);
  // Enough workers: makespan is the max.
  EXPECT_DOUBLE_EQ(makespan({1, 2, 3}, 3), 3.0);
  // The classic LPT suboptimality instance: {3,3,2,2,2} on 2 workers
  // schedules to 7 (optimal is 6) — LPT is a 7/6 approximation.
  EXPECT_DOUBLE_EQ(makespan({3, 3, 2, 2, 2}, 2), 7.0);
  // Balanced case: {4,3,3,2} on 2 workers -> 6.
  EXPECT_DOUBLE_EQ(makespan({4, 3, 3, 2}, 2), 6.0);
}

TEST(Makespan, NeverBelowTheoreticalBounds) {
  std::vector<double> T = {5, 1, 4, 2, 8, 3, 3, 6};
  double Sum = 0, Max = 0;
  for (double X : T) {
    Sum += X;
    Max = std::max(Max, X);
  }
  for (unsigned P = 1; P <= 8; ++P) {
    double M = makespan(T, P);
    EXPECT_GE(M + 1e-9, Sum / P);
    EXPECT_GE(M + 1e-9, Max);
    EXPECT_LE(M, Sum + 1e-9);
  }
}

TEST(Workload, GeneratorsMatchBenchmarks) {
  // With inversions disabled the is_sorted stream is monotone.
  const lang::SerialProgram *Sorted = lang::findBenchmark("is_sorted");
  WorkloadOptions NoInv;
  NoInv.SortedInversionPerMille = 0;
  std::vector<int64_t> S = generateWorkload(*Sorted, 1000, 3, NoInv);
  for (size_t I = 1; I != S.size(); ++I)
    EXPECT_LE(S[I - 1], S[I]);

  const lang::SerialProgram *Alt = lang::findBenchmark("alternating01");
  std::vector<int64_t> A = generateWorkload(*Alt, 100, 3);
  for (size_t I = 1; I != A.size(); ++I)
    EXPECT_NE(A[I - 1], A[I]);

  const lang::SerialProgram *Pat = lang::findBenchmark("count_102");
  std::vector<int64_t> Pd = generateWorkload(*Pat, 1000, 3);
  for (int64_t V : Pd)
    EXPECT_TRUE(V == 0 || V == 1 || V == 2);

  // The skewed distinct stream: wide head, narrow tail.
  const lang::SerialProgram *D = lang::findBenchmark("count_distinct");
  std::vector<int64_t> Dd = generateWorkload(*D, 8000, 3);
  for (size_t I = 4000; I != Dd.size(); ++I)
    EXPECT_GE(Dd[I], 1600);
}

// At the default inversion rate the is_sorted generator must exercise
// BOTH benchmark outcomes across seeds — the old always-monotone stream
// never took the false branch, so a broken false-path merge could pass
// every workload-driven test.
TEST(Workload, SortedGeneratorProducesBothOutcomes) {
  const lang::SerialProgram *Sorted = lang::findBenchmark("is_sorted");
  unsigned WithInversion = 0, FullySorted = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::vector<int64_t> S = generateWorkload(*Sorted, 450, Seed);
    bool Monotone = true;
    for (size_t I = 1; I != S.size(); ++I)
      if (S[I - 1] > S[I])
        Monotone = false;
    ++(Monotone ? FullySorted : WithInversion);
  }
  EXPECT_GT(WithInversion, 0u);
  EXPECT_GT(FullySorted, 0u);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
  // Reusable after wait().
  Pool.submit([&Count] { Count += 10; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 110);
}

TEST(Runner, SpeedupModelIsConsistent) {
  ParallelRunResult R;
  R.WorkerSeconds = {0.1, 0.1, 0.1, 0.1};
  R.MergeSeconds = 0.0;
  EXPECT_NEAR(modeledSpeedup(0.4, R, 4), 4.0, 1e-9);
  EXPECT_NEAR(modeledSpeedup(0.4, R, 1), 1.0, 1e-9);
}

TEST(Makespan, EdgeCases) {
  // More workers than tasks: extra workers idle, makespan is the max.
  EXPECT_DOUBLE_EQ(makespan({2.0, 1.0}, 8), 2.0);
  // All-zero task times and no tasks at all both model as zero.
  EXPECT_DOUBLE_EQ(makespan({0.0, 0.0, 0.0}, 4), 0.0);
  EXPECT_DOUBLE_EQ(makespan({}, 3), 0.0);
}

TEST(Runner, SpeedupModelEdgeCases) {
  // Zero measured work and zero merge: the model reports 0 rather than
  // dividing by zero.
  ParallelRunResult Z;
  Z.WorkerSeconds = {0.0, 0.0};
  Z.MergeSeconds = 0.0;
  EXPECT_DOUBLE_EQ(modeledSpeedup(1.0, Z, 4), 0.0);

  // No worker measurements at all (empty segment list).
  ParallelRunResult E;
  EXPECT_DOUBLE_EQ(modeledSpeedup(1.0, E, 2), 0.0);

  // P larger than the segment count still uses only the real work.
  ParallelRunResult W;
  W.WorkerSeconds = {0.2, 0.2};
  W.MergeSeconds = 0.0;
  EXPECT_NEAR(modeledSpeedup(0.4, W, 16), 2.0, 1e-9);
}

// One CompiledPlan shared across a multi-worker pool, folded over many
// segments, repeatedly: the merged output must equal the serial fold
// every round. Run under -DGRASSP_SANITIZE=thread this also proves the
// kernels are const-callable without races (the old shared Scratch
// buffer in CompiledProgram::output was not).
TEST(Runner, SharedPlanConcurrentStressMatchesSerial) {
  ThreadPool Pool(4);
  for (const char *Name : {"sum", "second_max", "is_sorted", "count_102",
                           "count_distinct"}) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    ASSERT_NE(P, nullptr) << Name;
    synth::SynthesisResult R = synth::synthesize(*P);
    ASSERT_TRUE(R.Success) << Name;

    std::vector<int64_t> Data = generateWorkload(*P, 20000, 11);
    std::vector<SegmentView> Segs = partition(Data, 32);
    CompiledProgram CP(*P);
    CompiledPlan Plan(*P, R.Plan);
    int64_t Serial = CP.runSerial(Segs);
    for (int Round = 0; Round != 4; ++Round) {
      ParallelRunResult PR = runParallel(Plan, Segs, &Pool);
      EXPECT_EQ(PR.Output, Serial) << Name << " round " << Round;
    }
  }
}

// The h kernel itself, hammered from many workers through one shared
// CompiledProgram (runSerial ends in output()): concurrent const calls
// must agree with each other and with the single-threaded answer.
TEST(Runner, SharedCompiledProgramConcurrentOutput) {
  const lang::SerialProgram *P = lang::findBenchmark("delta_max_min");
  ASSERT_NE(P, nullptr);
  std::vector<int64_t> Data = generateWorkload(*P, 4000, 5);
  std::vector<SegmentView> Segs = partition(Data, 8);
  CompiledProgram CP(*P);
  int64_t Expected = CP.runSerial(Segs);

  ThreadPool Pool(4);
  std::vector<int64_t> Outs(64, 0);
  for (size_t I = 0; I != Outs.size(); ++I)
    Pool.submit([&, I] { Outs[I] = CP.runSerial(Segs); });
  Pool.wait();
  for (int64_t O : Outs)
    EXPECT_EQ(O, Expected);
}

// Every execution tier hammered concurrently on one shared const
// CompiledProgram. foldSegmentTier and output use thread-local scratch
// register files; under -DGRASSP_SANITIZE=thread this proves no tier
// touches shared mutable state per call.
TEST(Runner, AllTiersConcurrentOnSharedProgram) {
  ThreadPool Pool(4);
  for (const char *Name : {"sum", "second_max", "count_max", "is_sorted"}) {
    const lang::SerialProgram *P = lang::findBenchmark(Name);
    ASSERT_NE(P, nullptr) << Name;
    std::vector<int64_t> Data = generateWorkload(*P, 6000, 23);
    std::vector<SegmentView> Segs = partition(Data, 16);
    const CompiledProgram CP(*P);
    int64_t Expected = CP.runSerial(Segs);

    constexpr ExecTier AllTiers[] = {ExecTier::Native, ExecTier::LoopVM,
                                     ExecTier::PerElement};
    std::vector<int64_t> Outs(48, 0);
    for (size_t I = 0; I != Outs.size(); ++I) {
      ExecTier T = AllTiers[I % 3];
      if (!CP.tierAvailable(T))
        T = CP.tier();
      Pool.submit([&, I, T] { Outs[I] = CP.runSerialTier(T, Segs); });
    }
    Pool.wait();
    for (size_t I = 0; I != Outs.size(); ++I)
      EXPECT_EQ(Outs[I], Expected) << Name << " task " << I;
  }
}

} // namespace
