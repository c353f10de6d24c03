//===- tests/runtime_distinct_test.cpp - Hash-set distinct kernel ---------===//
//
// The DistinctSet replaces the historical O(n·k) linear membership scan
// in every distinct-tracking path (serial run, scan worker, merge
// refold). These tests pin its semantics — exact counts on
// duplicate-heavy workloads against a reference std::set, insertion
// order preservation across growth — and the end-to-end count_distinct
// regression the satellite demands.
//
//===----------------------------------------------------------------------===//

#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/DistinctSet.h"
#include "runtime/Kernels.h"
#include "runtime/Workload.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <set>

using namespace grassp;
using runtime::DistinctSet;

namespace {

TEST(DistinctSet, MatchesReferenceOnDuplicateHeavyWorkload) {
  // Heavy duplication (values drawn from a tiny range) is exactly the
  // regime where the old linear scan was quadratic-ish and where hash
  // collisions are common.
  Rng R(0xd15c);
  for (unsigned Trial = 0; Trial != 30; ++Trial) {
    DistinctSet S;
    std::set<int64_t> Ref;
    size_t N = 1 + R.bounded(5000);
    int64_t Span = 1 + R.range(1, 64); // few distinct values, many dups.
    for (size_t I = 0; I != N; ++I) {
      int64_t V = R.range(-Span, Span);
      EXPECT_EQ(S.insert(V), Ref.insert(V).second);
    }
    EXPECT_EQ(S.size(), Ref.size());
    for (int64_t V : Ref)
      EXPECT_TRUE(S.contains(V));
    EXPECT_FALSE(S.contains(Span + 1));
  }
}

TEST(DistinctSet, PreservesInsertionOrderAcrossGrowth) {
  // Insert far past the initial capacity so the table rehashes several
  // times; order() must still report first-seen order (the merge refold
  // depends on deterministic iteration).
  DistinctSet S;
  std::vector<int64_t> Want;
  for (int64_t V = 999; V >= -999; V -= 3) {
    ASSERT_TRUE(S.insert(V));
    EXPECT_FALSE(S.insert(V)); // immediate duplicate is rejected.
    Want.push_back(V);
  }
  EXPECT_EQ(S.order(), Want);
  EXPECT_EQ(DistinctSet(S).takeOrder(), Want);
}

TEST(DistinctSet, AdversarialKeysCollidingModuloPowerOfTwo) {
  // Keys identical modulo any small power of two defeat a masked
  // identity hash; the SplitMix64 finalizer must keep probes short
  // enough for this to terminate quickly and stay exact.
  DistinctSet S;
  std::set<int64_t> Ref;
  for (int64_t I = 0; I != 4096; ++I) {
    int64_t V = I << 20;
    EXPECT_EQ(S.insert(V), Ref.insert(V).second);
  }
  EXPECT_EQ(S.size(), 4096u);
}

TEST(DistinctSet, ExpectedCapacityHintIsJustAHint) {
  DistinctSet Hinted(4);
  for (int64_t V = 0; V != 1000; ++V)
    Hinted.insert(V % 137); // wraps: duplicates after the first 137.
  EXPECT_EQ(Hinted.size(), 137u);
}

// End-to-end regression: the hashed distinct kernel must produce counts
// identical to the reference interpreter on duplicate-heavy segmented
// workloads (the satellite's pinned regression for dropping the linear
// scan).
TEST(DistinctSet, CountDistinctProgramMatchesInterpreter) {
  const lang::SerialProgram *P = lang::findBenchmark("count_distinct");
  ASSERT_NE(P, nullptr);
  runtime::CompiledProgram CP(*P);
  EXPECT_EQ(CP.tier(), runtime::ExecTier::Specialized);
  EXPECT_EQ(CP.selectionReason(), "specialized (bag: hash-set distinct)");

  Rng R(31337);
  for (unsigned Trial = 0; Trial != 10; ++Trial) {
    size_t N = 2000 + R.bounded(3000);
    std::vector<int64_t> Data;
    Data.reserve(N);
    for (size_t I = 0; I != N; ++I)
      Data.push_back(R.range(0, 40)); // ~41 distinct among thousands.
    int64_t Want = lang::runSerial(*P, Data);

    for (const runtime::SegmentShape &Shape :
         runtime::adversarialShapes(N, 5)) {
      std::vector<runtime::SegmentView> Views =
          runtime::segmentsFromLengths(Data, Shape.Lens);
      EXPECT_EQ(CP.runSerial(Views), Want) << Shape.Name;
    }
  }
}

} // namespace
