#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/task_graph.hpp"
#include "decision_pin.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sim/fault_injector.hpp"
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

/// FIFO over the whole graph that counts the pulls reaching it. With
/// `answer_may_pop` it tells the engine when its queue is empty, and counts
/// those answers; without, it keeps the always-poll default.
class CountingFifo final : public core::Scheduler {
 public:
  explicit CountingFifo(bool answer_may_pop)
      : answer_may_pop_(answer_may_pop) {}
  [[nodiscard]] std::string_view name() const override { return "fifo"; }
  void prepare(const core::TaskGraph& graph, const core::Platform&,
               std::uint64_t) override {
    num_tasks_ = graph.num_tasks();
  }
  [[nodiscard]] core::TaskId pop_task(core::GpuId,
                                      const core::MemoryView&) override {
    ++pops;
    if (next_ == num_tasks_) {
      ++empty_pops;
      return core::kInvalidTask;
    }
    return next_++;
  }
  [[nodiscard]] bool may_pop(core::GpuId) const override {
    if (!answer_may_pop_ || next_ < num_tasks_) return true;
    ++declined;
    return false;
  }

  std::uint64_t pops = 0;
  std::uint64_t empty_pops = 0;  ///< pulls that found the queue empty
  mutable std::uint64_t declined = 0;

 private:
  bool answer_may_pop_;
  TaskId num_tasks_ = 0;
  TaskId next_ = 0;
};

TEST(Engine, MayPopFalseSkipsThePullWithoutChangingDecisions) {
  // 16 single-input tasks on 3 GPUs: once the queue drains, every task end
  // and every load re-polls the starved GPUs.
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 16; ++i) {
    builder.add_task(100.0 + 10.0 * i, {builder.add_data(10)});
  }
  const core::TaskGraph graph = builder.build();
  auto run = [&graph](CountingFifo& scheduler) {
    RuntimeEngine engine(graph, test_platform(3, 40), scheduler);
    RunReportCollector collector;
    InvariantChecker checker({.fail_fast = false});
    engine.add_inspector(&collector);
    engine.add_inspector(&checker);
    const core::RunMetrics metrics = engine.run();
    EXPECT_TRUE(checker.ok()) << checker.report().error;
    return test::pin_of(collector.trace(), metrics);
  };

  CountingFifo polled(/*answer_may_pop=*/false);
  const test::Pin baseline = run(polled);
  ASSERT_GT(polled.empty_pops, 0u) << "the run never re-polled a starved GPU";

  CountingFifo skipping(/*answer_may_pop=*/true);
  const test::Pin skipped = run(skipping);
  EXPECT_EQ(skipped.trace_hash, baseline.trace_hash);
  EXPECT_EQ(skipped.loads, baseline.loads);
  EXPECT_DOUBLE_EQ(skipped.makespan_us, baseline.makespan_us);
  // Every pull the polled run wasted is one the query declined.
  EXPECT_EQ(skipping.declined, polled.empty_pops);
#ifdef NDEBUG
  EXPECT_EQ(skipping.empty_pops, 0u);
  EXPECT_EQ(skipping.pops, graph.num_tasks());
#else
  // Debug audits every declined pull by making it.
  EXPECT_EQ(skipping.empty_pops, skipping.declined);
#endif
}

TEST(Engine, ReclaimedOrphansAreServedWhileTheSchedulerHasNothing) {
  // 8 tasks on 2 GPUs with 4-deep pipelines: both buffers fill at t=0 and
  // drain the scheduler. gpu1 dies mid-run; the scheduler declines its
  // orphans, so only the engine's reclaim queue holds them while gpu0's
  // query keeps answering false.
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 8; ++i) builder.add_task(100.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();
  FaultPlan plan;
  plan.gpu_losses.push_back({150.0, 1});

  CountingFifo scheduler(/*answer_may_pop=*/true);
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler);
  FaultInjector injector(plan);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();
  ASSERT_TRUE(checker.ok()) << checker.report().error;

  EXPECT_EQ(metrics.faults.gpu_losses, 1u);
  EXPECT_GT(metrics.faults.tasks_reclaimed, 0u);
  EXPECT_GT(scheduler.declined, 0u);
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());
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
