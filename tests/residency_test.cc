// ResidencyPlanner (core/residency.h): the greedy budgeted pin-set solver
// behind the hybrid engine, plus the sizing-level budget resolution.
#include <gtest/gtest.h>

#include "core/partition.h"
#include "core/residency.h"
#include "core/sizing.h"
#include "util/env.h"

namespace xstream {
namespace {

PartitionResidencyStats Part(uint64_t vertex_bytes, uint64_t update_bytes,
                             uint64_t avoided) {
  PartitionResidencyStats s;
  s.vertex_bytes = vertex_bytes;
  s.update_buffer_bytes = update_bytes;
  s.avoided_bytes_per_iteration = avoided;
  return s;
}

TEST(ResidencyPlannerTest, ZeroBudgetPinsNothing) {
  ResidencyPlanner planner(0);
  ResidencyPlan plan = planner.Plan({Part(10, 10, 1000), Part(10, 10, 1000)});
  EXPECT_EQ(plan.resident_count(), 0u);
  EXPECT_EQ(plan.resident_bytes, 0u);
  EXPECT_EQ(plan.avoided_bytes_per_iteration, 0u);
}

TEST(ResidencyPlannerTest, AmpleBudgetPinsEverythingUseful) {
  ResidencyPlanner planner(1 << 20);
  ResidencyPlan plan =
      planner.Plan({Part(10, 10, 100), Part(20, 0, 50), Part(5, 5, 0)});
  EXPECT_TRUE(plan.resident[0]);
  EXPECT_TRUE(plan.resident[1]);
  EXPECT_FALSE(plan.resident[2]);  // zero avoided bytes: pinning buys nothing
  EXPECT_EQ(plan.resident_bytes, 40u);
  EXPECT_EQ(plan.avoided_bytes_per_iteration, 150u);
}

TEST(ResidencyPlannerTest, GreedyPrefersDensityNotRawSavings) {
  // Partition 1 saves the most in absolute terms but is 100x the cost;
  // under a tight budget the two dense partitions win.
  ResidencyPlanner planner(200);
  ResidencyPlan plan =
      planner.Plan({Part(100, 0, 1000), Part(10000, 0, 2000), Part(100, 0, 900)});
  EXPECT_TRUE(plan.resident[0]);
  EXPECT_FALSE(plan.resident[1]);
  EXPECT_TRUE(plan.resident[2]);
  EXPECT_EQ(plan.resident_bytes, 200u);
}

TEST(ResidencyPlannerTest, OversizedCandidateIsSkippedNotTerminal) {
  // The densest partition does not fit; the budget must flow past it to the
  // smaller ones instead of stopping.
  ResidencyPlanner planner(50);
  ResidencyPlan plan = planner.Plan({Part(1000, 0, 100000), Part(25, 0, 100), Part(25, 0, 90)});
  EXPECT_FALSE(plan.resident[0]);
  EXPECT_TRUE(plan.resident[1]);
  EXPECT_TRUE(plan.resident[2]);
}

TEST(ResidencyPlannerTest, DeterministicTieBreakByPartitionId) {
  ResidencyPlanner planner(10);
  ResidencyPlan plan = planner.Plan({Part(10, 0, 100), Part(10, 0, 100)});
  EXPECT_TRUE(plan.resident[0]);
  EXPECT_FALSE(plan.resident[1]);
}

// ---------------------------------------------------------------------------
// PlanDelta: the incremental solve with migration hysteresis.

TEST(ResidencyPlanDeltaTest, FirstDeltaFromEmptyPromotesTheTargetSet) {
  ResidencyPlanner planner(100);
  planner.set_hysteresis(1);
  ResidencyPlan current;
  current.resident.assign(3, false);
  ResidencyDelta d = planner.PlanDelta(current, {Part(50, 0, 500), Part(50, 0, 400),
                                                 Part(50, 0, 300)});
  EXPECT_TRUE(d.evict.empty());
  EXPECT_EQ(d.promote, (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(d.plan.resident[0]);
  EXPECT_TRUE(d.plan.resident[1]);
  EXPECT_FALSE(d.plan.resident[2]);
  EXPECT_EQ(d.plan.resident_bytes, 100u);
}

TEST(ResidencyPlanDeltaTest, FlipFlopProducesZeroMigrationsAtHysteresisTwo) {
  // A partition that flips hot/cold every iteration never accumulates two
  // consecutive wins (or losses), so at k=2 it must never migrate — the
  // thrash the hysteresis exists to suppress.
  ResidencyPlanner planner(100);
  planner.set_hysteresis(2);
  ResidencyPlan current;
  current.resident = {true, false};
  current.resident_bytes = 100;
  for (int iter = 0; iter < 10; ++iter) {
    bool p1_hot = iter % 2 == 0;  // partition 1 outbids partition 0 on even iters
    ResidencyDelta d = planner.PlanDelta(
        current, {Part(100, 0, p1_hot ? 100 : 1000), Part(100, 0, p1_hot ? 1000 : 100)});
    EXPECT_TRUE(d.empty()) << "iteration " << iter << " migrated";
    EXPECT_EQ(d.plan.resident, current.resident);
  }
}

TEST(ResidencyPlanDeltaTest, StableWinMigratesAfterHysteresisIterations) {
  ResidencyPlanner planner(100);
  planner.set_hysteresis(2);
  ResidencyPlan current;
  current.resident = {true, false};
  // Partition 1 wins decisively and stays hot: no migration on the first
  // disagreeing call, the swap on the second.
  std::vector<PartitionResidencyStats> hot = {Part(100, 0, 100), Part(100, 0, 1000)};
  ResidencyDelta first = planner.PlanDelta(current, hot);
  EXPECT_TRUE(first.empty());
  ResidencyDelta second = planner.PlanDelta(current, hot);
  EXPECT_EQ(second.evict, (std::vector<uint32_t>{0}));
  EXPECT_EQ(second.promote, (std::vector<uint32_t>{1}));
  EXPECT_FALSE(second.plan.resident[0]);
  EXPECT_TRUE(second.plan.resident[1]);
}

TEST(ResidencyPlanDeltaTest, ForceBypassesHysteresisButNotBudget) {
  // Budget reassignments (the scheduler's re-split) must land promptly:
  // force applies the full difference in one delta, but promotions still
  // respect the byte budget.
  ResidencyPlanner planner(100);
  planner.set_hysteresis(3);
  ResidencyPlan current;
  current.resident = {true, false, false};
  ResidencyDelta d = planner.PlanDelta(
      current, {Part(100, 0, 10), Part(60, 0, 1000), Part(60, 0, 900)}, /*force=*/true);
  EXPECT_EQ(d.evict, (std::vector<uint32_t>{0}));
  EXPECT_EQ(d.promote, (std::vector<uint32_t>{1}));  // 2 would overflow the budget
  EXPECT_EQ(d.plan.resident_bytes, 60u);
}

TEST(ResidencyPlanDeltaTest, BlockedPromotionKeepsItsStreakAndEntersWhenRoomFrees) {
  // Partition 1 deserves a pin immediately, but the budget is full of
  // partition 0, whose loss the hysteresis is still confirming. The winner
  // must not lose its accumulated streak while it waits: the moment the
  // eviction lands, the promotion lands with it.
  ResidencyPlanner planner(100);
  planner.set_hysteresis(3);
  ResidencyPlan current;
  current.resident = {true, false};
  std::vector<PartitionResidencyStats> hot = {Part(100, 0, 100), Part(100, 0, 1000)};
  EXPECT_TRUE(planner.PlanDelta(current, hot).empty());
  EXPECT_TRUE(planner.PlanDelta(current, hot).empty());
  ResidencyDelta third = planner.PlanDelta(current, hot);
  EXPECT_EQ(third.evict, (std::vector<uint32_t>{0}));
  EXPECT_EQ(third.promote, (std::vector<uint32_t>{1}));
}

TEST(ResidencyPlanDeltaTest, AgreementResetsTheStreak) {
  ResidencyPlanner planner(100);
  planner.set_hysteresis(2);
  ResidencyPlan current;
  current.resident = {true, false};
  std::vector<PartitionResidencyStats> hot = {Part(100, 0, 100), Part(100, 0, 1000)};
  std::vector<PartitionResidencyStats> calm = {Part(100, 0, 1000), Part(100, 0, 100)};
  EXPECT_TRUE(planner.PlanDelta(current, hot).empty());   // streak 1
  EXPECT_TRUE(planner.PlanDelta(current, calm).empty());  // agreement: reset
  EXPECT_TRUE(planner.PlanDelta(current, hot).empty());   // streak 1 again
  EXPECT_FALSE(planner.PlanDelta(current, hot).empty());  // streak 2: migrate
}

TEST(BuildHybridPlanInputsTest, PricesVertexAndCrossTraffic) {
  PartitionLayout layout(100, 2);  // partitions of 50 vertices each
  std::vector<uint64_t> dst = {40, 10};
  std::vector<uint64_t> local = {30, 5};
  auto inputs = BuildHybridPlanInputs(layout, /*vertex_state_bytes=*/8,
                                      /*update_bytes=*/8, dst, local,
                                      /*absorb_local_updates=*/true);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0].vertex_bytes, 400u);
  EXPECT_EQ(inputs[0].update_buffer_bytes, 320u);  // worst case: every in-edge
  // 3 vertex-array passes + write-and-read-back of the 10 crossing updates.
  EXPECT_EQ(inputs[0].avoided_bytes_per_iteration, 3 * 400u + 2 * 10 * 8u);
  // Without absorption every incoming update would have hit the file.
  auto no_absorb = BuildHybridPlanInputs(layout, 8, 8, dst, local, false);
  EXPECT_EQ(no_absorb[0].avoided_bytes_per_iteration, 3 * 400u + 2 * 40 * 8u);
}

TEST(BuildHybridPlanInputsTest, EdgePinningPricesEdgeStreamsIntoCostAndSavings) {
  PartitionLayout layout(100, 2);
  std::vector<uint64_t> dst = {40, 10};
  std::vector<uint64_t> local = {30, 5};
  std::vector<uint64_t> src = {25, 35};  // edges by source partition
  auto inputs = BuildHybridPlanInputs(layout, 8, 8, dst, local, true, &src);
  // The pin now also holds (and each iteration stops re-reading) the edge
  // stream.
  EXPECT_EQ(inputs[0].edge_bytes, 25 * sizeof(Edge));
  EXPECT_EQ(inputs[0].cost(), 400u + 320u + 25 * sizeof(Edge));
  EXPECT_EQ(inputs[0].avoided_bytes_per_iteration,
            3 * 400u + 2 * 10 * 8u + 25 * sizeof(Edge));
}

TEST(ResolveMemoryBudgetTest, AutoDetectsAndClampsToPhysicalMemory) {
  uint64_t physical = PhysicalMemoryBytes();
  uint64_t auto_budget = ResolveMemoryBudget(0);
  EXPECT_GT(auto_budget, 0u);
  if (physical > 0) {
    EXPECT_LE(auto_budget, physical);
    // An absurd request is clamped (with a warning), never fatal.
    EXPECT_EQ(ResolveMemoryBudget(UINT64_MAX), physical);
  }
  EXPECT_EQ(ResolveMemoryBudget(1 << 20), uint64_t{1} << 20);
}

}  // namespace
}  // namespace xstream
