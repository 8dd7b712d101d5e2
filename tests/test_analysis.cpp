#include <gtest/gtest.h>

#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/offline_model.hpp"
#include "core/task_graph.hpp"
#include "sim/trace.hpp"

namespace mg::analysis {
namespace {

using core::DataId;
using core::TaskId;
using sim::Trace;
using sim::TraceKind;

TEST(TraceHelpers, ExecutionOrderFiltersByGpu) {
  Trace trace;
  trace.events = {
      {1.0, TraceKind::kTaskStart, 0, 5},
      {2.0, TraceKind::kTaskStart, 1, 7},
      {3.0, TraceKind::kTaskEnd, 0, 5},
      {4.0, TraceKind::kTaskStart, 0, 6},
  };
  EXPECT_EQ(trace.execution_order(0), (std::vector<TaskId>{5, 6}));
  EXPECT_EQ(trace.execution_order(1), (std::vector<TaskId>{7}));
}

TEST(PipelinedLru, MatchesPlainLruOnNormalInstances) {
  // The previous task's inputs always carry the newest stamps, so plain LRU
  // never chooses them anyway: the two modes agree except in the
  // all-protected edge case below.
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 5; ++i) data.push_back(builder.add_data(1));
  builder.add_task(1.0, {data[0]});
  builder.add_task(1.0, {data[1]});
  builder.add_task(1.0, {data[2]});
  builder.add_task(1.0, {data[0], data[3]});
  builder.add_task(1.0, {data[4], data[1]});
  const core::TaskGraph graph = builder.build();

  const Schedule schedule{{0, 1, 2, 3, 4}};
  for (std::uint64_t memory : {2, 3, 4}) {
    const auto plain =
        replay_schedule(graph, schedule, memory, ReplayEviction::kLru);
    const auto pipelined = replay_schedule(graph, schedule, memory,
                                           ReplayEviction::kLruPipelined);
    EXPECT_EQ(plain.total_loads, pipelined.total_loads) << "M=" << memory;
  }
}

TEST(PipelinedLru, FallsBackWhenEverythingIsProtected) {
  // Memory 3: at task t1, the resident set is exactly prev(t0) + cur(t1)
  // inputs; pipelined mode must fall back to plain LRU instead of aborting.
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(1);
  const DataId d1 = builder.add_data(1);
  const DataId d2 = builder.add_data(1);
  const DataId d3 = builder.add_data(1);
  builder.add_task(1.0, {d0, d1});
  builder.add_task(1.0, {d2, d3});
  const core::TaskGraph graph = builder.build();

  const Schedule schedule{{0, 1}};
  const auto pipelined =
      replay_schedule(graph, schedule, 3, ReplayEviction::kLruPipelined);
  EXPECT_EQ(pipelined.total_loads, 4u);
}

TEST(Bounds, ThresholdsScaleWithGpuCountAndMemory) {
  core::Platform platform = core::make_v100_platform(4, 250 * core::kMB);
  EXPECT_EQ(threshold_both_matrices_fit(platform), 1000 * core::kMB);
  EXPECT_EQ(threshold_one_matrix_fits(platform), 2000 * core::kMB);
  EXPECT_DOUBLE_EQ(gflops_max(platform), 4 * 13253.0);
}

}  // namespace
}  // namespace mg::analysis
