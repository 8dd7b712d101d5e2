#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/task_graph.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "workloads/matmul2d.hpp"

namespace mg::sim {
namespace {

using core::DataId;
using core::TaskId;

/// Test platform with trivial arithmetic: 1 byte transfers in 1 us (zero
/// latency), 1 flop computes in 1 us.
core::Platform test_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;                 // 1 flop = 1 us
  platform.bus_bandwidth_bytes_per_s = 1e6;   // 1 byte = 1 us
  platform.bus_latency_us = 0.0;
  return platform;
}

TEST(Engine, SingleTaskTimeline) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  builder.add_task(20.0, {d});
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> order{{0}};
  sched::FixedOrderScheduler scheduler(order);
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  EXPECT_DOUBLE_EQ(metrics.makespan_us, 30.0);  // 10us load + 20us compute
  EXPECT_EQ(metrics.total_loads(), 1u);
  EXPECT_EQ(metrics.total_bytes_loaded(), 10u);
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 1u);
  EXPECT_DOUBLE_EQ(metrics.per_gpu[0].busy_time_us, 20.0);
}

TEST(Engine, SharedInputLoadedOnce) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  builder.add_task(20.0, {d});
  builder.add_task(20.0, {d});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0, 1}});
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  EXPECT_EQ(metrics.total_loads(), 1u);
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 50.0);  // 10 + 2*20
}

TEST(Engine, PrefetchOverlapsWithCompute) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(20.0, {d0});
  builder.add_task(20.0, {d1});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0, 1}});
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  // d0 loads [0,10], t0 runs [10,30]; d1 prefetched [10,20] during t0's
  // load... bus is FIFO so d1 actually transfers [10,20], fully hidden.
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 50.0);
}

TEST(Engine, TwoGpusShareTheBus) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(20.0, {d0});
  builder.add_task(20.0, {d1});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0}, {1}});
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler);
  const core::RunMetrics metrics = engine.run();

  // gpu0: load [0,10], compute [10,30]; gpu1's load serializes on the bus
  // [10,20], compute [20,40].
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 40.0);
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 1u);
  EXPECT_EQ(metrics.per_gpu[1].tasks_executed, 1u);
}

TEST(Engine, EvictionHappensUnderMemoryPressure) {
  core::TaskGraphBuilder builder;
  const DataId a = builder.add_data(10);
  const DataId b = builder.add_data(10);
  const DataId c = builder.add_data(10);
  const DataId d = builder.add_data(10);
  builder.add_task(5.0, {a, b});
  builder.add_task(5.0, {a, c});
  builder.add_task(5.0, {a, d});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0, 1, 2}});
  RuntimeEngine engine(graph, test_platform(1, 20), scheduler);  // 2 data fit
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  // a is always the most recently used; b, c are evicted in turn.
  EXPECT_EQ(metrics.total_loads(), 4u);
  EXPECT_EQ(metrics.total_evictions(), 2u);
  EXPECT_TRUE(checker.ok()) << checker.report().error;
}

TEST(Engine, TraceRecordsExecutionOrder) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  builder.add_task(5.0, {d0});
  builder.add_task(5.0, {d0});
  builder.add_task(5.0, {d0});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{2, 0, 1}});
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  RunReportCollector collector;
  engine.add_inspector(&collector);
  (void)engine.run();

  EXPECT_EQ(collector.trace().execution_order(0),
            (std::vector<TaskId>{2, 0, 1}));
}

TEST(Engine, PipelineDepthOneStillCompletes) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 10, .flops_per_byte = 1.0});
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.pipeline_depth = 1;
  RuntimeEngine engine(graph, test_platform(1, 200), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 16u);
}

TEST(Engine, SchedulerCostAccountingStillCompletes) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 10, .flops_per_byte = 1.0});
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.account_scheduler_cost = true;
  RuntimeEngine engine(graph, test_platform(1, 200), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 16u);
  EXPECT_TRUE(metrics.scheduler_cost_accounted);
  EXPECT_GE(metrics.wall_makespan_us(), metrics.makespan_us);
}

TEST(Engine, StallTimeComplementsBusyTime) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(100);
  builder.add_task(5.0, {d0});
  const core::TaskGraph graph = builder.build();
  std::vector<std::vector<TaskId>> order{{0}};
  sched::FixedOrderScheduler scheduler(order);
  RuntimeEngine engine(graph, test_platform(1, 200), scheduler);
  const core::RunMetrics metrics = engine.run();
  // 100us load, 5us compute: 100us of stall.
  EXPECT_DOUBLE_EQ(metrics.per_gpu[0].stall_time_us, 100.0);
}

/// Scheduler with a fixed order plus explicit prefetch hints.
class HintingScheduler final : public core::Scheduler {
 public:
  HintingScheduler(std::vector<TaskId> order, std::vector<DataId> hints)
      : order_(std::move(order)), hints_(std::move(hints)) {}
  [[nodiscard]] std::string_view name() const override { return "hinting"; }
  void prepare(const core::TaskGraph&, const core::Platform&,
               std::uint64_t) override {}
  [[nodiscard]] core::TaskId pop_task(core::GpuId,
                                      const core::MemoryView&) override {
    if (cursor_ >= order_.size()) return core::kInvalidTask;
    return order_[cursor_++];
  }
  [[nodiscard]] std::vector<DataId> prefetch_hints(core::GpuId) override {
    return hints_;
  }

 private:
  std::vector<TaskId> order_;
  std::vector<DataId> hints_;
  std::size_t cursor_ = 0;
};

TEST(Engine, FreeSpaceHintsPrefetchWithoutEvicting) {
  // Four data of 10 bytes, memory 40: hints for all four can prefetch into
  // free space before the tasks arrive at them.
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int i = 0; i < 4; ++i) {
    builder.add_task(100.0, {data[static_cast<std::size_t>(i)]});
  }
  const core::TaskGraph graph = builder.build();

  HintingScheduler scheduler({0, 1, 2, 3}, data);
  EngineConfig config;
  config.pipeline_depth = 1;  // no pipeline prefetch: hints do the work
  RuntimeEngine engine(graph, test_platform(1, 40), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  // All transfers [0..40us] hide under task 0's compute [10,110]; tasks
  // run back to back: makespan = 10 + 4*100.
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 410.0);
  EXPECT_EQ(metrics.total_evictions(), 0u);
}

TEST(Engine, HintsStopAtFullMemoryUnlessAllowedToEvict) {
  // Memory fits 2 of 4 data. Free-space hints prefetch only the first two;
  // with hints_may_evict they keep streaming (evicting used data).
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int i = 0; i < 4; ++i) {
    builder.add_task(100.0, {data[static_cast<std::size_t>(i)]});
  }
  const core::TaskGraph graph = builder.build();

  auto run = [&](bool may_evict) {
    HintingScheduler scheduler({0, 1, 2, 3}, data);
    EngineConfig config;
    config.pipeline_depth = 1;
    config.hints_may_evict = may_evict;
    RuntimeEngine engine(graph, test_platform(1, 20), scheduler, config);
    return engine.run();
  };

  const core::RunMetrics conservative = run(false);
  const core::RunMetrics eager = run(true);
  EXPECT_EQ(conservative.total_loads(), 4u);
  EXPECT_EQ(eager.total_loads(), 4u);
  // Eager hints overlap the later transfers with compute; both complete.
  EXPECT_LE(eager.makespan_us, conservative.makespan_us);
  EXPECT_GE(eager.total_evictions(), 2u);
}

/// Scheduler that never yields a task: the engine must detect the deadlock.
class RefusingScheduler final : public core::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "refuse"; }
  void prepare(const core::TaskGraph&, const core::Platform&,
               std::uint64_t) override {}
  [[nodiscard]] core::TaskId pop_task(core::GpuId,
                                      const core::MemoryView&) override {
    return core::kInvalidTask;
  }
};

TEST(Engine, DetectsSchedulerDeadlock) {
  core::TaskGraphBuilder builder;
  builder.add_task(5.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();
  RefusingScheduler scheduler;
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  try {
    (void)engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& error) {
    EXPECT_NE(std::string(error.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("gpu0"), std::string::npos);
  }
}

TEST(Engine, EventBudgetExceededThrows) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(5.0, {d});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.max_events = 3;  // far below what the run needs
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler, config);
  try {
    (void)engine.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("budget exceeded"), std::string::npos);
    // The excerpt renders the watchdog's raw event ring.
    EXPECT_NE(what.find("recent events:\n  t="), std::string::npos) << what;
  }
}

TEST(Engine, SimTimeBudgetExceededThrows) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(5.0, {d});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.max_sim_time_us = 12.0;  // run needs 10us load + 40us compute
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler, config);
  EXPECT_THROW((void)engine.run(), BudgetExceededError);
}

TEST(Engine, BudgetsLargeEnoughDoNotFire) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  builder.add_task(5.0, {d});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EngineConfig config;
  config.max_events = 100000;
  config.max_sim_time_us = 1e9;
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler, config);
  const core::RunMetrics metrics = engine.run();
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 15.0);
}

TEST(EngineDeathTest, RejectsOversizedTaskFootprint) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(60);
  const DataId d1 = builder.add_data(60);
  builder.add_task(5.0, {d0, d1});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  EXPECT_DEATH(RuntimeEngine(graph, test_platform(1, 100), scheduler),
               "do not fit");
}

}  // namespace
}  // namespace mg::sim
