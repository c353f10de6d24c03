//===- tests/mapreduce_test.cpp - DFS and cluster-simulator tests ----------=//

#include "lang/Benchmarks.h"
#include "mapreduce/Cluster.h"
#include "runtime/Runner.h"
#include "synth/Grassp.h"

#include <gtest/gtest.h>

using namespace grassp;
using namespace grassp::mapreduce;

namespace {

TEST(MiniDfsTest, ShardsCoverFileWithRoundRobinPlacement) {
  MiniDfs Dfs(4, /*BlockElems=*/8);
  std::vector<int64_t> Data(100);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<int64_t>(I);
  Dfs.put("f", Data);
  EXPECT_EQ(Dfs.size("f"), 100u);

  std::vector<Shard> Shards = Dfs.shards("f", 10);
  ASSERT_EQ(Shards.size(), 10u);
  size_t Total = 0;
  int64_t Next = 0;
  for (const Shard &S : Shards) {
    EXPECT_LT(S.HomeNode, 4u);
    for (size_t I = 0; I != S.View.Size; ++I)
      EXPECT_EQ(S.View.Data[I], Next++);
    Total += S.View.Size;
  }
  EXPECT_EQ(Total, 100u);
  // Blocks of 8 across 4 nodes: shard at offset 10 lives on node 1.
  EXPECT_EQ(Shards[1].HomeNode, 1u);
}

class JobBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(JobBenchmark, JobOutputMatchesSerialAndSpeedupIsBounded) {
  const lang::SerialProgram *P = lang::findBenchmark(GetParam());
  ASSERT_NE(P, nullptr);
  synth::SynthesisResult R = synth::synthesize(*P);
  ASSERT_TRUE(R.Success);

  ClusterConfig Cfg;
  // Calibrated so map tasks represent nontrivial modeled compute even on
  // the native tier (microseconds of host time per shard);
  // otherwise modeled startup/dispatch/reduce costs dominate and the
  // model legitimately reports speedup < 1.
  Cfg.ComputeScale = 5.0e6;
  MiniDfs Dfs(Cfg.Nodes);
  std::vector<int64_t> Data = runtime::generateWorkload(*P, 60000, 5);
  Dfs.put("in", Data);

  JobReport Rep = runJob(*P, R.Plan, Dfs, "in", Cfg);
  runtime::CompiledProgram CP(*P);
  EXPECT_EQ(Rep.Output, CP.runSerial({{Data.data(), Data.size()}}));
  EXPECT_GT(Rep.Speedup, 1.0);
  EXPECT_LE(Rep.Speedup, Cfg.Nodes + 0.5);
  EXPECT_GT(Rep.ParallelJobSec, Cfg.JobStartupSec);
}

INSTANTIATE_TEST_SUITE_P(Table2, JobBenchmark,
                         ::testing::Values("sum", "average", "count_max",
                                           "second_max", "all_equal",
                                           "search"),
                         [](const auto &Info) { return Info.param; });

TEST(ClusterSim, ScheduleTasksSingleNodeSumsLoads) {
  // Nodes=1: nowhere to migrate, so the makespan is just the serial sum
  // of task times plus one dispatch charge per task.
  ClusterConfig Cfg;
  Cfg.Nodes = 1;
  Cfg.TaskDispatchSec = 1.5;
  std::vector<double> TaskSec = {1.0, 2.0, 3.0};
  std::vector<unsigned> Home = {0, 0, 0};
  EXPECT_DOUBLE_EQ(scheduleTasks(TaskSec, Home, Cfg),
                   (1.0 + 2.0 + 3.0) + 3 * Cfg.TaskDispatchSec);

  // No tasks: nothing scheduled, zero makespan.
  EXPECT_DOUBLE_EQ(scheduleTasks({}, {}, Cfg), 0.0);
}

TEST(ClusterSim, ScheduleTasksPrefersLocalPlacementWhenEvenlyLoaded) {
  // Two equal tasks homed on different nodes of a 2-node cluster: both
  // stay home (no remote-read penalty), so the makespan is one task plus
  // one dispatch.
  ClusterConfig Cfg;
  Cfg.Nodes = 2;
  Cfg.TaskDispatchSec = 0.5;
  std::vector<double> TaskSec = {4.0, 4.0};
  std::vector<unsigned> Home = {0, 1};
  EXPECT_DOUBLE_EQ(scheduleTasks(TaskSec, Home, Cfg), 4.5);
}

TEST(ClusterSim, DegradedMatchesHealthyWhenEveryNodeSurvives) {
  // With all nodes alive and no stragglers the degraded scheduler is the
  // healthy one: same placement policy, same tie-breaking, same makespan.
  ClusterConfig Cfg;
  Cfg.Nodes = 3;
  std::vector<double> TaskSec = {4.0, 2.5, 1.0, 3.0, 0.5};
  std::vector<unsigned> Home = {0, 1, 2, 0, 1};
  ScheduleStats Stats;
  EXPECT_DOUBLE_EQ(
      scheduleTasksDegraded(TaskSec, {}, Home, {true, true, true}, Cfg,
                            &Stats),
      scheduleTasks(TaskSec, Home, Cfg));
  EXPECT_EQ(Stats.FailedTasks, 0u);
  EXPECT_EQ(Stats.SpeculativeTasks, 0u);
}

TEST(ClusterSim, SingleNodeClusterWithDeadNodeErrorsNotHangs) {
  // Nodes=1 and the one node dead: there is no survivor to reschedule
  // onto, so the scheduler must refuse explicitly rather than hang or
  // silently drop the tasks.
  ClusterConfig Cfg;
  Cfg.Nodes = 1;
  EXPECT_THROW(scheduleTasksDegraded({1.0, 2.0}, {}, {0, 0}, {false}, Cfg),
               std::runtime_error);
  // ...but a dead node with nothing to run is a trivial no-op job.
  EXPECT_DOUBLE_EQ(scheduleTasksDegraded({}, {}, {}, {false}, Cfg), 0.0);
}

TEST(ClusterSim, AllTasksOnFailedNodeAreRescheduledOntoSurvivor) {
  // Every task homed on dead node 0 of a 2-node cluster: all are lost,
  // detected after the heartbeat timeout, and re-run serially on node 1
  // with the remote-read penalty.
  ClusterConfig Cfg;
  Cfg.Nodes = 2;
  Cfg.NodeFailureDetectSec = 10.0;
  Cfg.TaskDispatchSec = 1.5;
  Cfg.RemoteReadPenalty = 1.15;
  std::vector<double> TaskSec = {1.0, 2.0, 3.0};
  ScheduleStats Stats;
  double M = scheduleTasksDegraded(TaskSec, {}, {0, 0, 0}, {false, true},
                                   Cfg, &Stats);
  EXPECT_EQ(Stats.FailedTasks, 3u);
  // Recovery starts no earlier than failure detection, and the lone
  // survivor serializes the re-runs:
  //   10 + (3 + 2 + 1) * 1.15 + 3 * 1.5 = 21.4
  EXPECT_NEAR(M, 21.4, 1e-9);
  EXPECT_GE(M, Cfg.NodeFailureDetectSec);
}

TEST(ClusterSim, MoreNodesNeverSlower) {
  const lang::SerialProgram *P = lang::findBenchmark("sum");
  synth::SynthesisResult R = synth::synthesize(*P);
  ASSERT_TRUE(R.Success);
  std::vector<int64_t> Data = runtime::generateWorkload(*P, 60000, 5);

  double Prev = 1e100;
  for (unsigned Nodes : {2u, 5u, 10u}) {
    ClusterConfig Cfg;
    Cfg.Nodes = Nodes;
    Cfg.ComputeScale = 50000.0;
    MiniDfs Dfs(Nodes);
    Dfs.put("in", Data);
    JobReport Rep = runJob(*P, R.Plan, Dfs, "in", Cfg);
    EXPECT_LT(Rep.ParallelJobSec, Prev * 1.2); // allow timing noise
    Prev = Rep.ParallelJobSec;
  }
}

} // namespace
