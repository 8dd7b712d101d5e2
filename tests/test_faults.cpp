// Fault-injection subsystem tests: FaultPlan parsing/validation (with
// line/column and file-name diagnostics), the engine's recovery paths (GPU
// loss, transfer retry with backoff, capacity shocks), proactive fault
// tolerance (task-progress checkpointing, replication-aware placement,
// fixed-order replay degradation), the degraded-model invariants, the
// zero-cost guarantee when no plan is armed, and whole-run decision pins of
// the recovery paths (RecoveryDecisionPin).
#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/darts.hpp"
#include "core/task_graph.hpp"
#include "decision_pin.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sched/hfp.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/errors.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "slo/tier_policy.hpp"

namespace mg::sim {
namespace {

using core::DataId;
using core::GpuId;
using core::TaskId;

/// Test platform with trivial arithmetic: 1 byte transfers in 1 us (zero
/// latency), 1 flop computes in 1 us.
core::Platform test_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;
  return platform;
}

/// Fixed per-GPU task lists with fault-aware hand-off: on a GPU loss the
/// dead GPU's unpopped remainder moves to a survivor, while the already
/// popped orphans are left to the engine's default requeue (return false).
class ListScheduler final : public core::Scheduler {
 public:
  explicit ListScheduler(std::vector<std::deque<TaskId>> queues)
      : queues_(std::move(queues)) {}

  [[nodiscard]] std::string_view name() const override { return "list"; }
  void prepare(const core::TaskGraph&, const core::Platform& platform,
               std::uint64_t) override {
    dead_.assign(platform.num_gpus, 0);
  }
  [[nodiscard]] TaskId pop_task(GpuId gpu, const core::MemoryView&) override {
    if (queues_[gpu].empty()) return core::kInvalidTask;
    const TaskId task = queues_[gpu].front();
    queues_[gpu].pop_front();
    return task;
  }
  [[nodiscard]] bool notify_gpu_lost(
      GpuId gpu, std::span<const TaskId> orphaned) override {
    (void)orphaned;
    dead_[gpu] = 1;
    for (GpuId other = 0; other < queues_.size(); ++other) {
      if (other == gpu || dead_[other] != 0) continue;
      queues_[other].insert(queues_[other].end(), queues_[gpu].begin(),
                            queues_[gpu].end());
      break;
    }
    queues_[gpu].clear();
    return false;  // engine requeues the popped orphans
  }

 private:
  std::vector<std::deque<TaskId>> queues_;
  std::vector<std::uint8_t> dead_;
};

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.gpu_losses.push_back({250.0, 1});
  FaultPlan::TransferFault fault;
  fault.start_us = 10.0;
  fault.end_us = 500.0;
  fault.scope = FaultPlan::TransferScope::kNvlink;
  fault.probability = 0.25;
  fault.max_failures_per_transfer = 2;
  plan.transfer_faults.push_back(fault);
  plan.capacity_shocks.push_back({100.0, 0, 4096});

  const std::string json = fault_plan_to_json(plan);
  std::string error;
  const auto parsed = parse_fault_plan(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->seed, 1234u);
  ASSERT_EQ(parsed->gpu_losses.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->gpu_losses[0].time_us, 250.0);
  EXPECT_EQ(parsed->gpu_losses[0].gpu, 1u);
  ASSERT_EQ(parsed->transfer_faults.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->transfer_faults[0].start_us, 10.0);
  EXPECT_DOUBLE_EQ(parsed->transfer_faults[0].end_us, 500.0);
  EXPECT_EQ(parsed->transfer_faults[0].scope,
            FaultPlan::TransferScope::kNvlink);
  EXPECT_DOUBLE_EQ(parsed->transfer_faults[0].probability, 0.25);
  EXPECT_EQ(parsed->transfer_faults[0].max_failures_per_transfer, 2u);
  ASSERT_EQ(parsed->capacity_shocks.size(), 1u);
  EXPECT_EQ(parsed->capacity_shocks[0].capacity_bytes, 4096u);
}

TEST(FaultPlan, UnboundedWindowRoundTripsAsInfinity) {
  FaultPlan plan;
  plan.transfer_faults.push_back({});  // default end_us = infinity
  plan.transfer_faults[0].probability = 0.5;
  const auto parsed = parse_fault_plan(fault_plan_to_json(plan));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::isinf(parsed->transfer_faults[0].end_us));
}

TEST(FaultPlan, ParseRejectsGarbageAndWrongSchema) {
  std::string error;
  EXPECT_FALSE(parse_fault_plan("not json", &error).has_value());
  EXPECT_FALSE(parse_fault_plan("{\"schema_version\":99}", &error).has_value());
  EXPECT_FALSE(parse_fault_plan("{}", &error).has_value());
  EXPECT_TRUE(parse_fault_plan("{\"schema_version\":1}").has_value());
}

TEST(FaultPlan, ValidateCatchesBadPlans) {
  FaultPlan plan;
  plan.gpu_losses.push_back({10.0, 5});
  EXPECT_FALSE(plan.validate(2).empty()) << "gpu id out of range";

  plan.gpu_losses.clear();
  plan.gpu_losses.push_back({10.0, 0});
  plan.gpu_losses.push_back({20.0, 1});
  EXPECT_FALSE(plan.validate(2).empty()) << "whole platform lost";

  plan.gpu_losses.clear();
  plan.gpu_losses.push_back({-1.0, 0});
  EXPECT_FALSE(plan.validate(2).empty()) << "negative time";

  plan.gpu_losses.clear();
  FaultPlan::TransferFault fault;
  fault.probability = 1.5;
  plan.transfer_faults.push_back(fault);
  EXPECT_FALSE(plan.validate(2).empty()) << "probability out of range";

  plan.transfer_faults.clear();
  plan.gpu_losses.push_back({10.0, 1});
  EXPECT_TRUE(plan.validate(2).empty());
}

TEST(FaultPlan, RandomPlansAreValidAndSpareOneGpu) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    RandomFaultOptions options;
    options.num_gpus = 2 + static_cast<std::uint32_t>(seed % 3);
    options.gpu_memory_bytes = 1000;
    const FaultPlan plan = make_random_fault_plan(seed, options);
    EXPECT_TRUE(plan.validate(options.num_gpus).empty())
        << plan.validate(options.num_gpus) << " (seed " << seed << ")";
    EXPECT_LT(plan.gpu_losses.size(), options.num_gpus);
  }
}

TEST(FaultInjector, EngineRejectsInvalidPlanUpFront) {
  core::TaskGraphBuilder builder;
  builder.add_task(5.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  FaultPlan plan;
  plan.gpu_losses.push_back({10.0, 7});  // no such GPU
  FaultInjector injector(plan);
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  engine.set_fault_injector(&injector);
  EXPECT_THROW((void)engine.run(), EngineError);
}

TEST(FaultInjector, GpuLossMidRunRerunsOrphansOnSurvivor) {
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 8; ++i) data.push_back(builder.add_data(10));
  for (int i = 0; i < 8; ++i) builder.add_task(5.0, {data[i]});
  const core::TaskGraph graph = builder.build();

  sched::EagerScheduler scheduler;
  FaultPlan plan;
  plan.gpu_losses.push_back({22.0, 1});
  FaultInjector injector(plan);
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.gpu_losses, 1u);
  EXPECT_GT(metrics.faults.tasks_reclaimed, 0u);
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());
  // Everything after the loss ran on gpu0; gpu1 stopped mid-run.
  EXPECT_LT(metrics.per_gpu[1].tasks_executed, 4u);
}

TEST(FaultInjector, GpuLossMidAssemblyWithPinnedInputs) {
  // gpu1 is assembling t1: input `a` landed (pinned for assembly), `b` still
  // on the wire when the GPU dies. The orphan must re-run on gpu0 and the
  // stale delivery of `b` must be dropped, not double-counted.
  core::TaskGraphBuilder builder;
  const DataId c = builder.add_data(10);
  const DataId a = builder.add_data(10);
  const DataId b = builder.add_data(10);
  builder.add_task(5.0, {c});     // t0 -> gpu0
  builder.add_task(5.0, {a, b});  // t1 -> gpu1
  const core::TaskGraph graph = builder.build();

  ListScheduler scheduler({{0}, {1}});
  FaultPlan plan;
  plan.gpu_losses.push_back({25.0, 1});  // c [0,10], a [10,20], b [20,30]
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 1;
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler, config);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.tasks_reclaimed, 1u);
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 2u);
  EXPECT_EQ(metrics.per_gpu[1].tasks_executed, 0u);
  // t1's inputs re-land on gpu0 after the in-flight b->gpu1 wire frees:
  // a [30,40], b [40,50], compute [50,55].
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 55.0);
}

TEST(FaultInjector, CapacityShockBelowPinnedSetClampsAndRecovers) {
  // Three tasks, each with its own input. The shock to 1 byte lands while
  // t1 runs with `b` pinned; it is clamped to the largest task footprint
  // (10 bytes), the unpinned `a` is emergency-evicted, and the run still
  // completes.
  core::TaskGraphBuilder builder;
  const DataId a = builder.add_data(10);
  const DataId b = builder.add_data(10);
  const DataId c = builder.add_data(10);
  builder.add_task(5.0, {a});
  builder.add_task(5.0, {b});
  builder.add_task(5.0, {c});
  const core::TaskGraph graph = builder.build();

  ListScheduler scheduler({{0, 1, 2}});
  FaultPlan plan;
  plan.capacity_shocks.push_back({27.0, 0, 1});
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 1;
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler, config);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.capacity_shocks, 1u);
  EXPECT_GE(metrics.faults.emergency_evictions, 1u);
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 3u);
}

TEST(FaultInjector, TransferDeliveredAfterLastAllowedFailure) {
  // probability 1.0 with max_failures_per_transfer = 3: attempts 1-3 all
  // fail, attempt 4 must deliver unconditionally.
  core::TaskGraphBuilder builder;
  builder.add_task(5.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();

  sched::EagerScheduler scheduler;
  FaultPlan plan;
  plan.seed = 9;
  FaultPlan::TransferFault fault;
  fault.probability = 1.0;
  fault.max_failures_per_transfer = 3;
  plan.transfer_faults.push_back(fault);
  FaultInjector injector(plan);
  RuntimeEngine engine(graph, test_platform(1, 100), scheduler);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.transfer_retries, 3u);
  EXPECT_EQ(metrics.faults.wasted_transfer_bytes, 30u);
  EXPECT_EQ(metrics.total_loads(), 1u);  // retries never double-deliver
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 1u);
  // Three wasted 10us wire occupations plus exponential backoff push the
  // single load well past its fault-free 10us.
  EXPECT_GT(metrics.makespan_us, 40.0);
}

TEST(FaultInjector, SoleNvlinkReplicaHolderDiesMidPeerCopy) {
  // d lands on gpu0, then gpu1's fetch of d is rerouted onto NVLink (the
  // second-chance filter sees the fresh replica). gpu0 — the only holder —
  // dies while the peer copy is on the wire; the engine must re-route the
  // fetch to the host bus and complete t1 on gpu1.
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  builder.add_task(5.0, {d});  // t0 -> gpu0
  builder.add_task(5.0, {d});  // t1 -> gpu1
  const core::TaskGraph graph = builder.build();

  core::Platform platform = test_platform(2, 100);
  platform.nvlink_enabled = true;
  platform.nvlink_bandwidth_bytes_per_s = 1e6;  // 1 byte = 1 us
  platform.nvlink_latency_us = 0.0;

  ListScheduler scheduler({{0}, {1}});
  FaultPlan plan;
  // d -> gpu0 on the host bus [0,10]; the peer copy d -> gpu1 starts at 10.
  plan.gpu_losses.push_back({16.0, 0});
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 1;
  RuntimeEngine engine(graph, platform, scheduler, config);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.gpu_losses, 1u);
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 1u);  // t0 finished at 15
  EXPECT_EQ(metrics.per_gpu[1].tasks_executed, 1u);
  // The dead peer copy resolves at 20, re-routes to the host bus [20,30],
  // t1 computes [30,35].
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 35.0);
  EXPECT_EQ(metrics.per_gpu[1].loads, 1u);  // host-bus fallback, not peer
}

TEST(FaultInjector, SchedulerAdoptionPathsCompleteEveryTask) {
  // The schedulers with notify_gpu_lost overrides (DARTS re-pools, the
  // work-queue family splices) each absorb a mid-run loss.
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 6; ++i) data.push_back(builder.add_data(10));
  for (int t = 0; t < 24; ++t) {
    builder.add_task(5.0, {data[t % 6], data[(t + 1) % 6]});
  }
  const core::TaskGraph graph = builder.build();

  for (const bool use_darts : {true, false}) {
    core::DartsScheduler darts;
    sched::HfpScheduler hfp;
    core::Scheduler& scheduler =
        use_darts ? static_cast<core::Scheduler&>(darts)
                  : static_cast<core::Scheduler&>(hfp);
    FaultPlan plan;
    plan.gpu_losses.push_back({30.0, 0});
    FaultInjector injector(plan);
    RuntimeEngine engine(graph, test_platform(2, 100), scheduler);
    engine.set_fault_injector(&injector);
    InvariantChecker checker({.fail_fast = false});
    engine.add_inspector(&checker);
    const core::RunMetrics metrics = engine.run();

    ASSERT_TRUE(checker.ok())
        << (use_darts ? "DARTS" : "HFP") << ": " << checker.report().error
        << "\n" << checker.report().excerpt;
    std::uint64_t executed = 0;
    for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
    EXPECT_EQ(executed, graph.num_tasks());
    EXPECT_EQ(metrics.faults.gpu_losses, 1u);
  }
}

TEST(FaultPlan, SyntaxErrorsNameLineAndColumn) {
  std::string error;
  EXPECT_FALSE(
      parse_fault_plan("{\n  \"schema_version\": 1,\n  oops\n}", &error)
          .has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("column"), std::string::npos) << error;
}

TEST(FaultPlan, FileErrorsArePrefixedWithTheFileName) {
  const std::string path = ::testing::TempDir() + "/bad_plan.json";
  { std::ofstream(path) << "{ \"schema_version\":\n"; }
  std::string error;
  EXPECT_FALSE(load_fault_plan_file(path, &error).has_value());
  EXPECT_NE(error.find("bad_plan.json"), std::string::npos) << error;
  EXPECT_NE(error.find("line"), std::string::npos) << error;
}

TEST(Checkpointing, RestoreSkipsCheckpointedPrefix) {
  // One 100-us task on gpu0, checkpointed every 25 us (descriptor-only
  // snapshots: no declared outputs, zero latency). Boundaries commit at 35
  // (25%) and 60 (50%); the 75% boundary would commit at 85, after the
  // loss at 70. The re-run on gpu1 resumes from 50%: fetch [70,80],
  // compute the remaining 50 us [80,130], snapshotting 75% on the way.
  core::TaskGraphBuilder builder;
  builder.add_task(100.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();

  ListScheduler scheduler({{0}, {}});
  FaultPlan plan;
  plan.gpu_losses.push_back({70.0, 0});
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 1;
  config.checkpoint_interval_us = 25.0;
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler, config);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.checkpoints_taken, 3u);
  EXPECT_EQ(metrics.faults.tasks_restored, 1u);
  EXPECT_DOUBLE_EQ(metrics.faults.compute_saved_us, 50.0);
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 130.0);
  EXPECT_EQ(metrics.per_gpu[1].tasks_executed, 1u);
}

TEST(Checkpointing, ProgressIsDurableOnlyWhenTheDrainCompletes) {
  // The task declares 20 bytes of output, so the 50% snapshot's drain
  // occupies the write-back channel for 20 us: initiated at 60, committed
  // at 80. A loss at 70 lands mid-drain — the snapshot is discarded with
  // the dead GPU and the re-run starts from scratch. A loss at 90 lands
  // after the commit and the re-run resumes from 50%.
  core::TaskGraphBuilder builder;
  const TaskId t0 = builder.add_task(100.0, {builder.add_data(10)});
  builder.set_task_output(t0, 20);
  const core::TaskGraph graph = builder.build();

  auto run = [&](double loss_us) {
    ListScheduler scheduler({{0}, {}});
    FaultPlan plan;
    plan.gpu_losses.push_back({loss_us, 0});
    FaultInjector injector(plan);
    EngineConfig config;
    config.pipeline_depth = 1;
    config.checkpoint_fraction = 0.5;
    RuntimeEngine engine(graph, test_platform(2, 100), scheduler, config);
    engine.set_fault_injector(&injector);
    InvariantChecker checker({.fail_fast = false});
    engine.add_inspector(&checker);
    const core::RunMetrics metrics = engine.run();
    EXPECT_TRUE(checker.ok()) << checker.report().error << "\n"
                              << checker.report().excerpt;
    return metrics;
  };

  // Loss at 70: the snapshot dies with the GPU; the only committed
  // checkpoint is the one the from-scratch re-run takes for itself.
  const core::RunMetrics mid_drain = run(70.0);
  EXPECT_EQ(mid_drain.faults.checkpoints_taken, 1u);
  EXPECT_EQ(mid_drain.faults.tasks_restored, 0u);
  EXPECT_DOUBLE_EQ(mid_drain.faults.compute_saved_us, 0.0);

  // Loss at 90: the 50% snapshot committed at 80; the re-run resumes there
  // (and skips the already-committed boundary, so no second snapshot).
  const core::RunMetrics after_commit = run(90.0);
  EXPECT_EQ(after_commit.faults.checkpoints_taken, 1u);
  EXPECT_EQ(after_commit.faults.tasks_restored, 1u);
  EXPECT_DOUBLE_EQ(after_commit.faults.compute_saved_us, 50.0);
  EXPECT_EQ(after_commit.faults.checkpoint_payload_bytes, 20u);
  EXPECT_DOUBLE_EQ(after_commit.faults.checkpoint_overhead_us, 20.0);
}

TEST(Replication, HotSoleCopyIsReplicatedAndProtectedAfterLoss) {
  // h feeds all four gpu0 tasks; gpu1 works off p. Both are hot sole-copy
  // inputs, so each gets a proactive replica on the other device. When
  // gpu0 dies mid-run, h's replica on gpu1 becomes the sole surviving
  // copy: it is promoted to eviction-protected (p's surviving copy is an
  // original, not a replica) and the orphans re-run on gpu1 without
  // touching the host bus again.
  core::TaskGraphBuilder builder;
  const DataId h = builder.add_data(10);
  const DataId p = builder.add_data(10);
  for (int i = 0; i < 4; ++i) builder.add_task(50.0, {h});
  for (int i = 0; i < 4; ++i) builder.add_task(50.0, {p});
  const core::TaskGraph graph = builder.build();

  ListScheduler scheduler({{0, 1, 2, 3}, {4, 5, 6, 7}});
  FaultPlan plan;
  plan.gpu_losses.push_back({130.0, 0});
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 1;
  config.replicate_hot = true;
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler, config);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.replicas_created, 2u);
  EXPECT_EQ(metrics.faults.replica_bytes, 20u);
  EXPECT_EQ(metrics.faults.replicas_protected, 1u);
  EXPECT_EQ(metrics.faults.post_loss_host_loads, 0u);
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());
}

TEST(Replication, ReplicasAreShedFirstUnderMemoryPressure) {
  // gpu1 (25 bytes) holds p plus the proactive replica of h. When t4
  // demands q there is no free room: the replica is shed ahead of any
  // policy-chosen eviction, even though p is also evictable. The planned
  // loss sits past the makespan, so the replica is never protected.
  core::TaskGraphBuilder builder;
  const DataId h = builder.add_data(10);
  const DataId p = builder.add_data(10);
  const DataId q = builder.add_data(10);
  for (int i = 0; i < 3; ++i) builder.add_task(50.0, {h});
  builder.add_task(50.0, {p});
  builder.add_task(50.0, {q});
  const core::TaskGraph graph = builder.build();

  ListScheduler scheduler({{0, 1, 2}, {3, 4}});
  FaultPlan plan;
  plan.gpu_losses.push_back({10000.0, 0});  // armed but past the makespan
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 1;
  config.replicate_hot = true;
  RuntimeEngine engine(graph, test_platform(2, 25), scheduler, config);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.replicas_created, 1u);
  EXPECT_EQ(metrics.faults.replicas_shed, 1u);
  EXPECT_EQ(metrics.faults.replicas_protected, 0u);
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());
}

TEST(ReplayDegradation, FixedOrderLossReassignsTheRecordedSuffix) {
  // A recorded two-GPU schedule loses gpu0 mid-replay. The scheduler must
  // absorb the orphans and gpu0's unexecuted recorded suffix onto gpu1 and
  // report the divergence point instead of rejecting the run.
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 8; ++i) builder.add_task(10.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();

  sched::FixedOrderScheduler scheduler({{0, 1, 2, 3}, {4, 5, 6, 7}});
  FaultPlan plan;
  plan.gpu_losses.push_back({35.0, 0});
  FaultInjector injector(plan);
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  RunReportCollector collector;
  engine.add_inspector(&checker);
  engine.add_inspector(&collector);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.replay_divergences, 1u);
  EXPECT_GE(metrics.faults.replay_reassigned_tasks, 1u);
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());

  const auto divergence = scheduler.replay_divergence(0);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_LT(divergence->divergence_index, 4u);
  ASSERT_EQ(collector.report().faults.replay_divergence.size(), 1u);
  EXPECT_EQ(collector.report().faults.replay_divergence[0].gpu, 0u);
}

TEST(FaultInjector, EmptyPlanIsBitIdenticalToNoInjector) {
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int t = 0; t < 12; ++t) builder.add_task(5.0, {data[t % 4]});
  const core::TaskGraph graph = builder.build();

  auto run = [&](bool with_empty_injector) {
    sched::EagerScheduler scheduler;
    RuntimeEngine engine(graph, test_platform(2, 40), scheduler);
    FaultInjector injector{FaultPlan{}};
    if (with_empty_injector) engine.set_fault_injector(&injector);
    return engine.run();
  };

  const core::RunMetrics base = run(false);
  const core::RunMetrics armed = run(true);
  EXPECT_DOUBLE_EQ(base.makespan_us, armed.makespan_us);
  EXPECT_EQ(base.total_loads(), armed.total_loads());
  EXPECT_EQ(base.total_evictions(), armed.total_evictions());
  ASSERT_EQ(base.per_gpu.size(), armed.per_gpu.size());
  for (std::size_t gpu = 0; gpu < base.per_gpu.size(); ++gpu) {
    EXPECT_EQ(base.per_gpu[gpu].tasks_executed,
              armed.per_gpu[gpu].tasks_executed);
    EXPECT_DOUBLE_EQ(base.per_gpu[gpu].busy_time_us,
                     armed.per_gpu[gpu].busy_time_us);
  }
  EXPECT_EQ(armed.faults.gpu_losses, 0u);
  EXPECT_EQ(armed.faults.transfer_retries, 0u);
}

TEST(FaultDependencies, CheckpointedOrphanWaitsForUnretiredPredecessor) {
  // Regression: a checkpointed orphan whose predecessor later dies
  // un-checkpointed must wait for the predecessor's re-run. Before the
  // revoked-successor ejection this deadlocked — the revoked orphan sat at a
  // survivor's buffer head (stalled by the dependency gate) while the
  // re-running predecessor queued *behind* it, and only a head can start.
  //
  // One GPU per node so each node has its own host link and write-back
  // channel: S's zero-byte snapshot commits on node 2's idle channel while
  // P's 100-byte drain still occupies node 1's (on a shared channel the
  // snapshot would queue behind the drain and only ever commit after P had
  // already become durable). Each input is homed on its consumer's node
  // (data id % nodes), so first fetches are node-local.
  //
  // Timeline (1 flop = 1 us, 1 byte = 1 us on each node's host link):
  //   gpu0 runs filler F [1,501] and stays alive throughout.
  //   gpu1 runs P: fetch d0 [0,10], compute [10,40]. P's own 50% snapshot
  //     drags its 100-byte payload over node 1's write-back channel from
  //     t=25 but aborts (P finishes first), queueing the real drain behind
  //     it: P retires optimistically at 40, durable only at 225.
  //   gpu2 pops S at 40 (explicit edge P -> S): fetch d1 [40,45], compute
  //     starts at 45; the 50% snapshot (no declared output) commits
  //     instantly at 70 on node 2's idle channel.
  //   t=72: gpu2 dies. S is an orphan with durable 50% progress; the replay
  //     scheduler reassigns it to gpu0, where it buffers behind running F.
  //   t=85: gpu1 dies with P's drain still queued. P un-retires and revokes
  //     S's enablement while S sits popped in gpu0's pipeline: S is ejected
  //     and parked, P re-runs from scratch on gpu0 after F [501,531],
  //     re-retires at 531, and S resumes from its checkpoint [531,556] —
  //     everything finishes on gpu0.
  core::TaskGraphBuilder builder;
  const DataId df = builder.add_data(1);   // id 0 -> node 0
  const DataId d0 = builder.add_data(10);  // id 1 -> node 1
  const DataId d1 = builder.add_data(5);   // id 2 -> node 2
  const TaskId filler = builder.add_task(500.0, {df});
  const TaskId pred = builder.add_task(30.0, {d0});
  builder.set_task_output(pred, 100);
  const TaskId succ = builder.add_task(50.0, {d1});
  builder.add_dependency(pred, succ);
  const core::TaskGraph graph = builder.build();
  ASSERT_TRUE(graph.has_dependencies());

  sched::FixedOrderScheduler scheduler({{filler}, {pred}, {succ}});
  FaultPlan plan;
  plan.gpu_losses.push_back({72.0, 2});
  plan.gpu_losses.push_back({85.0, 1});
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 2;
  config.checkpoint_fraction = 0.5;
  core::Platform platform = test_platform(3, 1000);
  platform.num_nodes = 3;
  RuntimeEngine engine(graph, platform, scheduler, config);
  engine.set_fault_injector(&injector);
  InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  ASSERT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(metrics.faults.gpu_losses, 2u);
  // Reclaims: S orphaned at the first loss, P un-retired at the second, S
  // ejected from gpu0's pipeline by the revocation.
  EXPECT_EQ(metrics.faults.tasks_reclaimed, 3u);
  // S's re-run resumed from the committed 50% snapshot: 25 us skipped. P's
  // snapshots never committed, so its re-run starts from scratch.
  EXPECT_EQ(metrics.faults.tasks_restored, 1u);
  EXPECT_DOUBLE_EQ(metrics.faults.compute_saved_us, 25.0);
  // Committed snapshots: S at 70 and the filler's 50% at 251.
  EXPECT_EQ(metrics.faults.checkpoints_taken, 2u);
  // The survivor executed everything: F, P's re-run, S's resumed re-run.
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, 3u);
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 556.0);
}

// ---- Recovery decision pins -------------------------------------------------
//
// Whole-run pins (tests/decision_pin.hpp) of the engine's recovery paths: an
// un-retirement with an eject and a checkpoint restore, a replica promoted
// after a loss, a co-running set lost at once, fused riders re-run after a
// loss, a suspicion escalated to a node loss, a node lost with work on it,
// and a drain that abandons an assembling head holding output scratch. The
// trace records only loads, evictions, starts, ends and write-backs, so
// every inspector event (kind, gpu, id, bytes, channel, aux) is folded into
// the hash too: a recovery step that moves, drops or reorders an event
// changes the pin.

/// Folds every event of the stream into one FNV-1a hash.
class StreamHash final : public Inspector {
 public:
  void on_event(const InspectorEvent& event) override {
    test::fnv1a_mix(hash, static_cast<std::uint32_t>(event.kind), 1);
    test::fnv1a_mix(hash, event.gpu, 4);
    test::fnv1a_mix(hash, event.id, 4);
    test::fnv1a_mix64(hash, event.bytes);
    test::fnv1a_mix(hash, event.channel, 4);
    test::fnv1a_mix(hash, event.aux, 4);
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
};

/// Attaches a report collector, the stream hash and a checker to a batch
/// or serving engine.
struct PinRecorders {
  explicit PinRecorders(auto& engine) {
    engine.add_inspector(&collector);
    engine.add_inspector(&stream);
    engine.add_inspector(&checker);
  }
  test::Pin pin(const core::RunMetrics& metrics) {
    EXPECT_TRUE(checker.ok()) << checker.report().error << "\n"
                              << checker.report().excerpt;
    test::Pin pin = test::pin_of(collector.trace(), metrics);
    test::fnv1a_mix64(pin.trace_hash, stream.hash);
    return pin;
  }
  RunReportCollector collector;
  StreamHash stream;
  InvariantChecker checker{{.fail_fast = false}};
};

test::Pin run_unretired_predecessor() {
  // FaultDependencies.CheckpointedOrphanWaitsForUnretiredPredecessor: two
  // losses un-retire P, eject its revoked successor S from gpu0's pipeline
  // and restore S from its committed snapshot.
  core::TaskGraphBuilder builder;
  const DataId df = builder.add_data(1);
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(5);
  const TaskId filler = builder.add_task(500.0, {df});
  const TaskId pred = builder.add_task(30.0, {d0});
  builder.set_task_output(pred, 100);
  const TaskId succ = builder.add_task(50.0, {d1});
  builder.add_dependency(pred, succ);
  const core::TaskGraph graph = builder.build();
  sched::FixedOrderScheduler scheduler({{filler}, {pred}, {succ}});
  FaultPlan plan;
  plan.gpu_losses.push_back({72.0, 2});
  plan.gpu_losses.push_back({85.0, 1});
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 2;
  config.checkpoint_fraction = 0.5;
  core::Platform platform = test_platform(3, 1000);
  platform.num_nodes = 3;
  RuntimeEngine engine(graph, platform, scheduler, config);
  engine.set_fault_injector(&injector);
  PinRecorders recorders(engine);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.faults.tasks_reclaimed, 3u);
  EXPECT_EQ(metrics.faults.tasks_restored, 1u);
  return recorders.pin(metrics);
}

test::Pin run_replicated_sole_copy() {
  // Replication.HotSoleCopyIsReplicatedAndProtectedAfterLoss.
  core::TaskGraphBuilder builder;
  const DataId h = builder.add_data(10);
  const DataId p = builder.add_data(10);
  for (int i = 0; i < 4; ++i) builder.add_task(50.0, {h});
  for (int i = 0; i < 4; ++i) builder.add_task(50.0, {p});
  const core::TaskGraph graph = builder.build();
  ListScheduler scheduler({{0, 1, 2, 3}, {4, 5, 6, 7}});
  FaultPlan plan;
  plan.gpu_losses.push_back({130.0, 0});
  FaultInjector injector(plan);
  EngineConfig config;
  config.pipeline_depth = 1;
  config.replicate_hot = true;
  RuntimeEngine engine(graph, test_platform(2, 100), scheduler, config);
  engine.set_fault_injector(&injector);
  PinRecorders recorders(engine);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.faults.replicas_protected, 1u);
  return recorders.pin(metrics);
}

/// 1 byte in 1 us, 1 flop in 1 us, and a warp budget of `warps_per_gpu`
/// per GPU.
core::Platform warp_platform(std::uint32_t gpus, std::uint32_t warps_per_gpu,
                             std::uint32_t nodes) {
  core::Platform platform = test_platform(gpus, 1000);
  platform.num_nodes = nodes;
  platform.host_memory_bytes = 4000;
  platform.sm_count = 1;
  platform.warps_per_sm = warps_per_gpu;
  return platform;
}

test::Pin run_co_running_set_loss() {
  // OccupancySharing.CoRunningSetSurvivesGpuLoss: gpu0 dies with several
  // kernels co-running on it.
  core::TaskGraphBuilder builder;
  const DataId data = builder.add_data(10);
  for (int t = 0; t < 8; ++t) {
    builder.set_task_warps(builder.add_task(100.0, {data}), 2);
  }
  const core::TaskGraph graph = builder.build();
  FaultPlan plan;
  plan.gpu_losses.push_back({50.0, 0});
  FaultInjector injector(plan);
  sched::EagerScheduler scheduler;
  RuntimeEngine engine(graph, warp_platform(2, 8, 1), scheduler,
                       {.occupancy_threshold = 1.0});
  engine.set_fault_injector(&injector);
  PinRecorders recorders(engine);
  const core::RunMetrics metrics = engine.run();
  EXPECT_GE(metrics.faults.tasks_reclaimed, 2u);
  return recorders.pin(metrics);
}

test::Pin run_unfused_riders() {
  // SloServe.UnfuseOnGpuLossReRunsRidersToCompletion: a loss breaks the
  // in-flight batches and every rider re-runs at member granularity.
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int t = 0; t < 6; ++t) {
    builder.add_task(5.0, {data[t % 4], data[(t + 1) % 4]});
  }
  const std::vector<core::TaskGraph> templates = {builder.build()};
  std::vector<serve::JobSpec> jobs(24);
  for (std::uint32_t j = 0; j < jobs.size(); ++j) {
    jobs[j].priority = (j % 2) * 2;
  }
  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 1e5;
  config.arrival.seed = 7;
  config.admission.max_jobs_in_flight = 2;
  config.engine.seed = 7;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy{
      {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
       {.min_priority = 2, .deadline_us = 0.0, .admission_weight = 4}}};
  config.slo.batching = true;
  config.slo.max_batch = 3;
  config.slo.marginal_compute = 0.5;
  FaultPlan plan;
  plan.gpu_losses.push_back({120.0, 1});
  FaultInjector injector(plan);
  sched::DmdaScheduler scheduler;
  serve::ServeEngine engine(templates, jobs, test_platform(2, 100), scheduler,
                            config);
  engine.set_fault_injector(&injector);
  PinRecorders recorders(engine);
  const serve::ServeResult result = engine.run();
  EXPECT_EQ(result.serving.jobs_completed, jobs.size());
  EXPECT_GT(recorders.collector.report().slo.batches_unfused, 0u);
  return recorders.pin(result.metrics);
}

test::Pin run_suspicion_escalation() {
  // NetFaultDetector.SuspicionEscalatesToNodeLossAfterTheConfirmWindow: a
  // never-healing partition against d1's home escalates to fail_node, which
  // re-homes d1 and re-issues the stranded fetch.
  core::TaskGraphBuilder builder;
  builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  for (int i = 0; i < 6; ++i) builder.add_task(1.0, {d1});
  const core::TaskGraph graph = builder.build();
  FaultPlan plan;
  FaultPlan::LinkFault fault;
  fault.src = 0;
  fault.dst = 1;
  fault.start_us = 0.0;
  fault.partition = true;
  plan.link_faults.push_back(fault);
  FaultInjector injector(plan);
  EngineConfig config;
  config.fetch_timeout_factor = 2.0;
  config.suspicion_confirm_window_us = 500.0;
  core::Platform platform = test_platform(2, 1000);
  platform.num_nodes = 2;
  sched::EagerScheduler scheduler;
  RuntimeEngine engine(graph, platform, scheduler, config);
  engine.set_fault_injector(&injector);
  PinRecorders recorders(engine);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(recorders.collector.report().network_faults.suspicions_escalated,
            1u);
  return recorders.pin(metrics);
}

test::Pin run_node_loss_orphans() {
  // A planned loss of node 1 while its GPU runs one task and buffers
  // another: fail_node announces the loss, hands both orphans back,
  // re-homes d1 onto node 0 and the survivor re-runs them there.
  core::TaskGraphBuilder builder;
  builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  for (int i = 0; i < 6; ++i) builder.add_task(400.0, {d1});
  const core::TaskGraph graph = builder.build();
  FaultPlan plan;
  plan.node_losses.push_back({500.0, 1});
  FaultInjector injector(plan);
  core::Platform platform = test_platform(2, 1000);
  platform.num_nodes = 2;
  sched::EagerScheduler scheduler;
  RuntimeEngine engine(graph, platform, scheduler, {.pipeline_depth = 2});
  engine.set_fault_injector(&injector);
  PinRecorders recorders(engine);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.faults.tasks_reclaimed, 2u);
  return recorders.pin(metrics);
}

/// Witnesses a drain and rejoin of node 1 (GPUs 2 and 3): scratch released
/// at the drain fence, and tasks started there after the join.
class DrainWitness final : public Inspector {
 public:
  DrainWitness(double fence_us, double join_us)
      : fence_us_(fence_us), join_us_(join_us) {}
  void on_event(const InspectorEvent& event) override {
    if (event.kind == InspectorEventKind::kScratchRelease &&
        event.time_us == fence_us_) {
      ++fence_releases;
    }
    if (event.kind == InspectorEventKind::kTaskStart && event.gpu >= 2 &&
        event.time_us > join_us_) {
      ++rejoined_starts;
    }
  }
  std::uint32_t fence_releases = 0;
  std::uint32_t rejoined_starts = 0;

 private:
  double fence_us_;
  double join_us_;
};

test::Pin run_drain_abandons_scratch() {
  // Node 1 drains while its GPUs each run one 5-warp kernel of an 8-warp
  // budget: the next head has its inputs and output scratch but waits for
  // warps, so the drain fence unwinds the assembly and releases the
  // scratch. The node rejoins later and serves again.
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) data.push_back(builder.add_data(10));
  for (int t = 0; t < 48; ++t) {
    const TaskId task = builder.add_task(40.0, {data[t % 4]});
    builder.set_task_output(task, 8);
    builder.set_task_warps(task, 5);
  }
  const core::TaskGraph graph = builder.build();
  sched::EagerScheduler scheduler;
  RuntimeEngine engine(graph, warp_platform(4, 8, 2), scheduler,
                       {.occupancy_threshold = 1.0});
  engine.event_queue().schedule_at(100.0,
                                   [&engine] { engine.begin_node_drain(1); });
  engine.event_queue().schedule_at(300.0,
                                   [&engine] { engine.begin_node_join(1); });
  PinRecorders recorders(engine);
  DrainWitness witness(100.0, 300.0);
  engine.add_inspector(&witness);
  const core::RunMetrics metrics = engine.run();
  EXPECT_GT(witness.fence_releases, 0u);
  EXPECT_GT(witness.rejoined_starts, 0u);
  EXPECT_EQ(engine.node_status(1), RuntimeEngine::NodeStatus::kActive);
  return recorders.pin(metrics);
}

struct RecoveryPinCase {
  const char* name;
  test::Pin (*run)();
  test::Pin expected;
};

// Reference values: the engine before its recovery steps were folded into
// shared helpers gives these runs.
const RecoveryPinCase kRecoveryPinCases[] = {
    {"UnretiredPredecessor", run_unretired_predecessor,
     {0xc6eb54a78610c89dULL, 5, 0, 556.0}},
    {"ReplicatedSoleCopy", run_replicated_sole_copy,
     {0x238e111c776f2c84ULL, 4, 0, 320.0}},
    {"CoRunningSetLoss", run_co_running_set_loss,
     {0xd182f92eddbb88eaULL, 2, 0, 320.0}},
    {"UnfusedRiders", run_unfused_riders,
     {0xfbe3eadf6726ba01ULL, 8, 0, 550.0}},
    {"SuspicionEscalation", run_suspicion_escalation,
     {0x30c78eda4ff7f059ULL, 2, 0, 639.00240000000008}},
    {"NodeLossOrphans", run_node_loss_orphans,
     {0xa39e17675a9e3491ULL, 2, 0, 2045.0008}},
    {"DrainAbandonsScratch", run_drain_abandons_scratch,
     {0x2a262526ec8c3a1bULL, 24, 0, 710.0}},
};

// gtest prints the parameter into each test's listed name; print the case
// name so that name does not carry the address of the name string.
void PrintTo(const RecoveryPinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

class RecoveryDecisionPin : public testing::TestWithParam<RecoveryPinCase> {};

TEST_P(RecoveryDecisionPin, RunRepeatsExactly) {
  const RecoveryPinCase& pin_case = GetParam();
  const test::Pin actual = pin_case.run();
  EXPECT_EQ(actual.trace_hash, pin_case.expected.trace_hash);
  EXPECT_EQ(actual.loads, pin_case.expected.loads);
  EXPECT_EQ(actual.evictions, pin_case.expected.evictions);
  EXPECT_DOUBLE_EQ(actual.makespan_us, pin_case.expected.makespan_us);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, RecoveryDecisionPin, testing::ValuesIn(kRecoveryPinCases),
    [](const testing::TestParamInfo<RecoveryPinCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mg::sim
