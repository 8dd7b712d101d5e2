// Heterogeneous-GPU extension: per-device speeds (the general StarPU
// setting; the paper's model notes heterogeneous tasks/data as easy
// extensions, and DMDA's completion-time model is exactly the piece that
// handles unequal processing units).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "core/darts.hpp"
#include "core/task_graph.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"
#include "sim/engine.hpp"
#include "sim/invariant_checker.hpp"
#include "workloads/matmul2d.hpp"

namespace mg {
namespace {

using core::DataId;
using core::TaskId;

core::Platform hetero_platform(std::vector<double> gflops,
                               std::uint64_t memory = 1000) {
  core::Platform platform;
  platform.num_gpus = static_cast<std::uint32_t>(gflops.size());
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops_per_device = std::move(gflops);
  platform.bus_bandwidth_bytes_per_s = 1e6;  // 1 byte = 1 us
  platform.bus_latency_us = 0.0;
  return platform;
}

TEST(HeteroPlatform, SpeedAccessorsAndPeak) {
  const core::Platform platform = hetero_platform({2e-3, 1e-3});
  EXPECT_TRUE(platform.is_heterogeneous());
  EXPECT_DOUBLE_EQ(platform.gflops_of(0), 2e-3);
  EXPECT_DOUBLE_EQ(platform.gflops_of(1), 1e-3);
  EXPECT_DOUBLE_EQ(platform.peak_gflops(), 3e-3);
  // 10 flops: 5 us on the fast device, 10 us on the slow one.
  EXPECT_DOUBLE_EQ(platform.compute_time_us(10.0, 0), 5.0);
  EXPECT_DOUBLE_EQ(platform.compute_time_us(10.0, 1), 10.0);
}

TEST(HeteroEngine, TaskDurationDependsOnDevice) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(100.0, {d0});  // gpu0 (fast): 50 us
  builder.add_task(100.0, {d1});  // gpu1 (slow): 100 us
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> orders{{0}, {1}};
  sched::FixedOrderScheduler scheduler(orders);
  sim::RuntimeEngine engine(graph, hetero_platform({2e-3, 1e-3}), scheduler);
  const core::RunMetrics metrics = engine.run();
  // Loads serialize on the bus: d0 [0,10], d1 [10,20]; fast task [10,60],
  // slow task [20,120].
  EXPECT_DOUBLE_EQ(metrics.per_gpu[0].busy_time_us, 50.0);
  EXPECT_DOUBLE_EQ(metrics.per_gpu[1].busy_time_us, 100.0);
  EXPECT_DOUBLE_EQ(metrics.makespan_us, 120.0);
}

TEST(HeteroEngine, RejectsMismatchedSpeedVector) {
  core::TaskGraphBuilder builder;
  builder.add_task(1.0, {builder.add_data(10)});
  const core::TaskGraph graph = builder.build();
  core::Platform platform = hetero_platform({1e-3, 1e-3});
  platform.num_gpus = 3;  // speeds only cover 2
  sched::EagerScheduler scheduler;
  EXPECT_DEATH(sim::RuntimeEngine(graph, platform, scheduler),
               "per-device speeds");
}

TEST(HeteroDmda, AllocatesProportionallyToSpeed) {
  // Independent equal tasks on a 3x-faster gpu0: DMDA's completion-time
  // model must give it about three quarters of the tasks.
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 40; ++i) {
    builder.add_task(100.0, {builder.add_data(1)});
  }
  const core::TaskGraph graph = builder.build();
  sched::DmdaScheduler dmda(false);
  dmda.prepare(graph, hetero_platform({3e-3, 1e-3}), 0);
  EXPECT_NEAR(static_cast<double>(dmda.queue(0).size()), 30.0, 2.0);
  EXPECT_NEAR(static_cast<double>(dmda.queue(1).size()), 10.0, 2.0);
}

TEST(HeteroHfp, BalancesDurationsNotFlops) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 30; ++i) builder.add_task(1.0, {d});
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> packages(2);
  for (TaskId task = 0; task < 30; ++task) packages[0].push_back(task);
  const std::vector<double> speeds{2.0, 1.0};
  sched::hfp_balance_loads(graph, packages, nullptr, speeds);
  // Duration balance: 20 tasks on the 2x device (10 units) vs 10 on the
  // 1x device (10 units).
  EXPECT_NEAR(static_cast<double>(packages[0].size()), 20.0, 1.0);
  EXPECT_NEAR(static_cast<double>(packages[1].size()), 10.0, 1.0);
}

TEST(HeteroHmetis, PartSizesFollowTargetShares) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 10, .data_bytes = 10});
  const hyper::Hypergraph hypergraph =
      hyper::hypergraph_from_task_graph(graph);
  hyper::PartitionerConfig config;
  config.num_parts = 2;
  config.seed = 4;
  config.imbalance = 0.05;
  config.target_share = {3.0, 1.0};
  const auto part = hyper::partition_hypergraph(hypergraph, config);
  std::array<std::uint64_t, 2> weights{0, 0};
  for (hyper::VertexId v = 0; v < hypergraph.num_vertices(); ++v) {
    weights[part[v]] += hypergraph.vertex_weight(v);
  }
  const double share0 = static_cast<double>(weights[0]) /
                        static_cast<double>(weights[0] + weights[1]);
  EXPECT_NEAR(share0, 0.75, 0.08);
}

class HeteroEndToEnd : public testing::TestWithParam<int> {};

TEST_P(HeteroEndToEnd, FasterGpuDoesMoreWork) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 10, .data_bytes = 10,
                            .flops_per_byte = 10.0});
  // gpu0 is 3x faster; memory roomy so compute dominates.
  const core::Platform platform = hetero_platform({3e-3, 1e-3}, 500);

  std::unique_ptr<core::Scheduler> scheduler;
  switch (GetParam()) {
    case 0: scheduler = std::make_unique<sched::DmdaScheduler>(); break;
    case 1: scheduler = std::make_unique<core::DartsScheduler>(); break;
    case 2: scheduler = std::make_unique<sched::HfpScheduler>(); break;
    default: scheduler = std::make_unique<sched::HmetisScheduler>(); break;
  }

  sim::RuntimeEngine engine(graph, platform, *scheduler);
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  EXPECT_EQ(metrics.per_gpu[0].tasks_executed +
                metrics.per_gpu[1].tasks_executed,
            graph.num_tasks());
  // The 3x device must clearly out-execute the slow one (dynamic behaviour
  // — stealing, pull rate, or DMDA's model — should all get there).
  EXPECT_GT(metrics.per_gpu[0].tasks_executed,
            metrics.per_gpu[1].tasks_executed * 3 / 2);
  EXPECT_TRUE(checker.ok()) << checker.report().error;
}

INSTANTIATE_TEST_SUITE_P(Schedulers, HeteroEndToEnd, testing::Range(0, 4));

}  // namespace
}  // namespace mg
