// Output-data extension: tasks may declare output bytes, which occupy GPU
// memory from task start until their write-back to the host completes (the
// extension the paper's model section sketches and excludes by default).
#include <gtest/gtest.h>

#include <vector>

#include "core/darts.hpp"
#include "core/task_graph.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sim/engine.hpp"
#include "sim/invariant_checker.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"

namespace mg::sim {
namespace {

using core::DataId;
using core::TaskId;

core::Platform unit_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;                 // 1 flop = 1 us
  platform.bus_bandwidth_bytes_per_s = 1e6;   // 1 byte = 1 us
  platform.bus_latency_us = 0.0;
  return platform;
}

TEST(Outputs, BuilderStoresAndDefaultsToZero) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  const TaskId t0 = builder.add_task(1.0, {d});
  const TaskId t1 = builder.add_task(1.0, {d});
  builder.set_task_output(t1, 42);
  const core::TaskGraph graph = builder.build();
  EXPECT_TRUE(graph.has_outputs());
  EXPECT_EQ(graph.task_output_bytes(t0), 0u);
  EXPECT_EQ(graph.task_output_bytes(t1), 42u);

  core::TaskGraphBuilder plain;
  plain.add_task(1.0, {plain.add_data(10)});
  EXPECT_FALSE(plain.build().has_outputs());
}

TEST(Outputs, FootprintIncludesOutput) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  const TaskId t = builder.add_task(1.0, {d});
  builder.set_task_output(t, 25);
  EXPECT_EQ(builder.build().max_task_footprint(), 35u);
}

TEST(Outputs, WriteBackOverlapsAndDoesNotDelayCompletion) {
  // One task: load [0,10], compute [10,30]; the 50-byte write-back runs
  // after completion and must not extend the makespan.
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  const TaskId t = builder.add_task(20.0, {d});
  builder.set_task_output(t, 50);
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> order{{0}};
  sched::FixedOrderScheduler scheduler(order);
  RuntimeEngine engine(graph, unit_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  EXPECT_DOUBLE_EQ(metrics.makespan_us, 30.0);
  EXPECT_EQ(metrics.total_bytes_written_back(), 0u);  // still in flight
}

TEST(Outputs, WriteBackBytesAreAccountedWhenItCompletes) {
  // Two tasks: the second one's completion gives the first write-back time
  // to finish inside the simulated horizon.
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  const TaskId t0 = builder.add_task(20.0, {d});
  builder.add_task(200.0, {d});
  builder.set_task_output(t0, 50);
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> order{{0, 1}};
  sched::FixedOrderScheduler scheduler(order);
  RuntimeEngine engine(graph, unit_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();
  // t0 ends at 30, write-back [30,80]; t1 ends at 230.
  EXPECT_EQ(metrics.total_bytes_written_back(), 50u);
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 230.0);
}

TEST(Outputs, ScratchBlocksStartUnderMemoryPressure) {
  // Memory of 100 bytes; both tasks read distinct 40-byte inputs and write
  // 60 bytes. Task 2 cannot hold input+scratch while task 1's write-back
  // still occupies its scratch, so it starts only after the write-back.
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(40);
  const DataId d1 = builder.add_data(40);
  const TaskId t0 = builder.add_task(10.0, {d0});
  const TaskId t1 = builder.add_task(10.0, {d1});
  builder.set_task_output(t0, 60);
  builder.set_task_output(t1, 60);
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> order{{0, 1}};
  sched::FixedOrderScheduler scheduler(order);
  RuntimeEngine engine(graph, unit_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  // Realized timeline (a genuine prefetch/eviction conflict, the very
  // phenomenon the paper discusses for DMDAR):
  //   d0 loads [0,40]; d1 prefetches [40,80]; t0's scratch does not fit
  //   until d1 lands and is evicted for it at 80 -> t0 runs [80,90], its
  //   write-back occupies scratch [90,150]; d1 is re-fetched [90,130] but
  //   t1's scratch must wait for the write-back -> t1 runs [150,160].
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 160.0);
  EXPECT_GE(metrics.total_evictions(), 2u);   // d1 (for scratch), then d0
  EXPECT_EQ(metrics.total_loads(), 3u);       // d0, d1, d1 again
  EXPECT_EQ(metrics.total_bytes_written_back(), 60u);  // t1's wb in flight
}

TEST(Outputs, MatmulWorkloadCarriesOutputs) {
  const core::TaskGraph graph = work::make_matmul_2d(
      {.n = 4, .data_bytes = 100, .output_bytes = 25});
  EXPECT_TRUE(graph.has_outputs());
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    EXPECT_EQ(graph.task_output_bytes(task), 25u);
  }
  EXPECT_EQ(graph.max_task_footprint(), 225u);
}

TEST(Outputs, CholeskyWorkloadCarriesOutputs) {
  const core::TaskGraph with = work::make_cholesky_tasks(
      {.n = 4, .with_outputs = true});
  const core::TaskGraph without = work::make_cholesky_tasks({.n = 4});
  EXPECT_TRUE(with.has_outputs());
  EXPECT_FALSE(without.has_outputs());
  EXPECT_EQ(with.task_output_bytes(0), 960ull * 960 * 4);
}

TEST(Outputs, EndToEndWithEvictionAndValidation) {
  const core::TaskGraph graph = work::make_matmul_2d(
      {.n = 8, .data_bytes = 14 * core::kMB,
       .output_bytes = 3'686'400});
  const core::Platform platform = core::make_v100_platform(2, 120 * core::kMB);

  for (int kind = 0; kind < 2; ++kind) {
    std::unique_ptr<core::Scheduler> scheduler;
    if (kind == 0) {
      scheduler = std::make_unique<sched::EagerScheduler>();
    } else {
      scheduler = std::make_unique<core::DartsScheduler>();
    }
    RuntimeEngine engine(graph, platform, *scheduler);
    InvariantChecker checker({.fail_fast = false});
    engine.add_inspector(&checker);
    const core::RunMetrics metrics = engine.run();
    std::uint64_t executed = 0;
    for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
    EXPECT_EQ(executed, graph.num_tasks());
    EXPECT_GT(metrics.total_bytes_written_back(), 0u);
    EXPECT_TRUE(checker.ok()) << checker.report().error;
  }
}

}  // namespace
}  // namespace mg::sim
