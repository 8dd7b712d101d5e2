// Cluster subsystem tests: hierarchical scheduling (inter-node partition,
// id translation, cross-node stealing, single-node identity), the
// locality-aware dynamic policy's node-distance cost model and its
// may_pop answer, the engine's remote-fetch / host-cache machinery
// (network byte accounting, bounded cache eviction), the schema-5 run
// report's bit-identical guarantee when num_nodes == 1, and whole-run
// decision pins of the locality policy.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cluster/hierarchical.hpp"
#include "cluster/locality.hpp"
#include "core/task_graph.hpp"
#include "decision_pin.hpp"
#include "sched/eager.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"

namespace mg {
namespace {

using core::DataId;
using core::TaskId;

core::Platform cluster_platform(std::uint32_t gpus, std::uint32_t nodes,
                                std::uint64_t memory = 1000) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.num_nodes = nodes;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;
  return platform;
}

/// MemoryView stub with an explicit set of resident data.
class StubMemory final : public core::MemoryView {
 public:
  explicit StubMemory(std::set<DataId> present = {})
      : present_(std::move(present)) {}
  [[nodiscard]] bool is_present(DataId data) const override {
    return present_.contains(data);
  }
  [[nodiscard]] bool is_present_or_fetching(DataId data) const override {
    return present_.contains(data);
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return 1000; }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return 10 * present_.size();
  }

 private:
  std::set<DataId> present_;
};

cluster::InnerSchedulerFactory eager_factory() {
  return [] { return std::make_unique<sched::EagerScheduler>(); };
}

TEST(Hierarchical, NameWrapsTheInnerScheduler) {
  cluster::HierarchicalScheduler scheduler(eager_factory());
  EXPECT_EQ(scheduler.name(), "hier(EAGER)");
}

TEST(Hierarchical, PartitionCoversEveryTaskAcrossNodes) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 4, .data_bytes = 10});
  cluster::HierarchicalScheduler scheduler(eager_factory());
  scheduler.prepare(graph, cluster_platform(4, 2), 42);

  const std::vector<std::uint32_t>& task_node = scheduler.task_node();
  ASSERT_EQ(task_node.size(), graph.num_tasks());
  std::vector<std::uint32_t> per_node(2, 0);
  for (const std::uint32_t node : task_node) {
    ASSERT_LT(node, 2u);
    ++per_node[node];
  }
  // The partitioner balances by the per-node GPU share: both halves get
  // work.
  EXPECT_GT(per_node[0], 0u);
  EXPECT_GT(per_node[1], 0u);
}

TEST(Hierarchical, PopsEveryTaskExactlyOnceAndStealsWhenANodeDrains) {
  // 4 independent tasks over 4 distinct data, 4 GPUs on 2 nodes. Popping
  // everything through gpu0 drains node 0's sub-schedule, after which the
  // remaining tasks arrive by cross-node stealing from node 1.
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 4; ++i) {
    const DataId d = builder.add_data(10);
    builder.add_task(1.0, {d});
  }
  const core::TaskGraph graph = builder.build();

  cluster::HierarchicalScheduler scheduler(eager_factory());
  scheduler.prepare(graph, cluster_platform(4, 2), 42);

  StubMemory memory;
  std::set<TaskId> popped;
  for (int i = 0; i < 4; ++i) {
    const TaskId task = scheduler.pop_task(0, memory);
    ASSERT_NE(task, core::kInvalidTask);
    EXPECT_TRUE(popped.insert(task).second) << "task popped twice";
    scheduler.notify_task_complete(0, task);
  }
  EXPECT_EQ(popped.size(), 4u);
  EXPECT_EQ(scheduler.pop_task(0, memory), core::kInvalidTask);
  // Node 1 held a (balanced) share of the partition; gpu0 stole it.
  EXPECT_GT(scheduler.steal_count(), 0u);
}

TEST(Hierarchical, StealingOffStrandsTheDrainedNode) {
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 4; ++i) {
    const DataId d = builder.add_data(10);
    builder.add_task(1.0, {d});
  }
  const core::TaskGraph graph = builder.build();

  cluster::HierarchicalScheduler scheduler(eager_factory(), {.steal = false});
  scheduler.prepare(graph, cluster_platform(4, 2), 42);

  StubMemory memory;
  int node0_tasks = 0;
  while (scheduler.pop_task(0, memory) != core::kInvalidTask) ++node0_tasks;
  EXPECT_GT(node0_tasks, 0);
  EXPECT_LT(node0_tasks, 4);  // node 1's share stays put
  EXPECT_EQ(scheduler.steal_count(), 0u);
}

TEST(Hierarchical, EndToEndTwoNodeRunIsInvariantClean) {
  const core::TaskGraph graph = work::make_matmul_2d({.n = 6});
  const core::Platform platform = [] {
    core::Platform p = core::make_v100_platform(4, 200 * core::kMB);
    p.num_nodes = 2;
    return p;
  }();

  cluster::HierarchicalScheduler scheduler(eager_factory());
  sim::RuntimeEngine engine(graph, platform, scheduler);
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  sim::RunReportCollector collector;
  engine.add_inspector(&collector);

  const core::RunMetrics metrics = engine.run();
  ASSERT_TRUE(checker.ok()) << checker.report().error << "\nlast events:\n"
                            << checker.report().excerpt;

  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());

  const sim::RunReport report = collector.report();
  ASSERT_TRUE(report.cluster.enabled);
  ASSERT_EQ(report.cluster.per_node.size(), 2u);
  EXPECT_EQ(report.cluster.per_node[0].gpu_begin, 0u);
  EXPECT_EQ(report.cluster.per_node[0].gpu_end, 2u);
  EXPECT_EQ(report.cluster.per_node[1].gpu_begin, 2u);
  EXPECT_EQ(report.cluster.per_node[1].gpu_end, 4u);
  std::uint64_t node_tasks = 0;
  for (const auto& node : report.cluster.per_node) {
    node_tasks += node.tasks_executed;
  }
  EXPECT_EQ(node_tasks, graph.num_tasks());
  // The matmul's data is spread round-robin over both nodes' host
  // memories: some inputs had to cross the network.
  EXPECT_GT(report.cluster.network_bytes, 0u);
  EXPECT_EQ(report.cluster.host_cache_fills, report.cluster.network_transfers);
}

TEST(Hierarchical, SingleNodeDelegatesToTheInnerScheduler) {
  // On a 1-node platform the wrapper is the identity: same pop order as a
  // bare EAGER over the same graph.
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 2, .data_bytes = 10});
  cluster::HierarchicalScheduler wrapped(eager_factory());
  sched::EagerScheduler bare;
  wrapped.prepare(graph, cluster_platform(2, 1), 42);
  bare.prepare(graph, cluster_platform(2, 1), 42);
  EXPECT_TRUE(wrapped.task_node().empty());

  StubMemory memory;
  for (TaskId i = 0; i < graph.num_tasks(); ++i) {
    EXPECT_EQ(wrapped.pop_task(i % 2, memory), bare.pop_task(i % 2, memory));
  }
}

TEST(Locality, PrefersTheTaskWhoseDataIsHomedOnTheAskingNode) {
  // d0 homes on node 0, d1 on node 1 (round-robin). A node-1 GPU asking
  // first should take the d1 task even though the d0 task was submitted
  // first.
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  const TaskId t0 = builder.add_task(1.0, {d0});
  const TaskId t1 = builder.add_task(1.0, {d1});
  const core::TaskGraph graph = builder.build();

  cluster::LocalityScheduler scheduler;
  scheduler.prepare(graph, cluster_platform(2, 2), 0);
  StubMemory memory;
  EXPECT_EQ(scheduler.pop_task(1, memory), t1);  // gpu1 = node 1
  EXPECT_EQ(scheduler.pop_task(0, memory), t0);
  EXPECT_EQ(scheduler.pop_task(0, memory), core::kInvalidTask);
}

TEST(Locality, ResidentDataBeatsSubmissionOrder) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(1.0, {d0});
  const TaskId t1 = builder.add_task(1.0, {d1});
  const core::TaskGraph graph = builder.build();

  cluster::LocalityScheduler scheduler;
  scheduler.prepare(graph, cluster_platform(1, 1), 0);
  // d1 is already on the GPU: its task costs nothing and pops first.
  StubMemory memory({d1});
  EXPECT_EQ(scheduler.pop_task(0, memory), t1);
}

TEST(Locality, LearnsNodeLocalityFromObservedLoads) {
  // Without observation, a node-0 pop would prefer the node-0-homed datum's
  // task. Seeing the remote datum land on a node-0 GPU marks it node-local
  // (it now sits in node 0's host cache), flipping the preference.
  core::TaskGraphBuilder builder;
  builder.add_data(10);  // id 0, unused: keeps the next id odd
  const DataId remote = builder.add_data(10);  // id 1 -> homed on node 1
  const DataId local = builder.add_data(10);   // id 2 -> homed on node 0
  const TaskId remote_task = builder.add_task(1.0, {remote});
  const TaskId local_task = builder.add_task(1.0, {local});
  const core::TaskGraph graph = builder.build();

  cluster::LocalityScheduler scheduler;
  scheduler.prepare(graph, cluster_platform(2, 2), 0);
  // Node 0's GPU observed the remote datum landing: node 0 can now serve
  // it from its host cache, so both tasks cost one PCI hop and submission
  // order wins — the remote task pops first despite its off-node home.
  scheduler.notify_data_loaded(0, remote);
  StubMemory memory;
  EXPECT_EQ(scheduler.pop_task(0, memory), remote_task);
  EXPECT_EQ(scheduler.pop_task(0, memory), local_task);
}

/// Checks that every GPU gets the same `may_pop` answer, and that a false
/// answer holds: the pull returns nothing.
void expect_may_pop(cluster::LocalityScheduler& scheduler, bool expected,
                    const core::MemoryView& memory) {
  for (core::GpuId gpu = 0; gpu < 2; ++gpu) {
    EXPECT_EQ(scheduler.may_pop(gpu), expected) << "gpu" << gpu;
  }
  if (!expected) {
    EXPECT_EQ(scheduler.pop_task(0, memory), core::kInvalidTask);
  }
}

TEST(Locality, MayPopIsFalseExactlyWhenThePoolIsEmpty) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(1.0, {d0});
  builder.add_task(1.0, {d1});
  const core::TaskGraph graph = builder.build();
  StubMemory memory;

  // Streamed: the pool starts empty and fills per arrival.
  cluster::LocalityScheduler streamed;
  ASSERT_TRUE(streamed.begin_streaming());
  streamed.prepare(graph, cluster_platform(2, 2), 0);
  expect_may_pop(streamed, false, memory);
  const std::vector<TaskId> arrived = {0, 1};
  streamed.notify_job_arrived(0, arrived);
  expect_may_pop(streamed, true, memory);
  EXPECT_NE(streamed.pop_task(0, memory), core::kInvalidTask);
  expect_may_pop(streamed, true, memory);
  EXPECT_NE(streamed.pop_task(1, memory), core::kInvalidTask);
  expect_may_pop(streamed, false, memory);

  // Dependency-gated: t0 enables t1 and t2; then a lost node's orphan is
  // adopted back into the drained pool.
  core::TaskGraphBuilder dag_builder;
  const DataId a = dag_builder.add_data(10);
  const DataId b = dag_builder.add_data(10);
  const TaskId t0 = dag_builder.add_task(1.0, {a});
  const TaskId t1 = dag_builder.add_task(1.0, {a, b});
  const TaskId t2 = dag_builder.add_task(1.0, {b});
  dag_builder.add_dependency(t0, t1);
  dag_builder.add_dependency(t0, t2);
  const core::TaskGraph dag = dag_builder.build();

  cluster::LocalityScheduler gated;
  ASSERT_TRUE(gated.begin_dependencies());
  gated.prepare(dag, cluster_platform(2, 2), 0);
  expect_may_pop(gated, true, memory);
  EXPECT_EQ(gated.pop_task(0, memory), t0);
  expect_may_pop(gated, false, memory);
  const std::vector<TaskId> enabled = {t1, t2};
  gated.notify_task_retired(t0, enabled);
  expect_may_pop(gated, true, memory);
  const TaskId first = gated.pop_task(1, memory);
  EXPECT_NE(first, core::kInvalidTask);
  EXPECT_NE(gated.pop_task(1, memory), core::kInvalidTask);
  expect_may_pop(gated, false, memory);

  const std::vector<core::GpuId> lost_gpus = {1};
  const std::vector<TaskId> orphans = {first};
  EXPECT_TRUE(gated.notify_node_lost(1, lost_gpus, orphans));
  EXPECT_TRUE(gated.may_pop(0));
  EXPECT_EQ(gated.pop_task(0, memory), first);
  EXPECT_FALSE(gated.may_pop(0));
}

TEST(Engine, RemoteFetchPaysTheNetworkOnceAndFillsTheHostCache) {
  // Six tasks all read d1 (10 bytes, homed on node 1). Node 0's GPU runs
  // some of them, so node 0 fetches d1 over the network exactly once
  // (waiter dedup), fills its host cache, and serves later waiters
  // locally.
  core::TaskGraphBuilder builder;
  builder.add_data(10);  // d0: keeps d1's id odd -> homed on node 1
  const DataId d1 = builder.add_data(10);
  for (int i = 0; i < 6; ++i) builder.add_task(1.0, {d1});
  const core::TaskGraph graph = builder.build();

  sched::EagerScheduler scheduler;
  sim::RuntimeEngine engine(graph, cluster_platform(2, 2), scheduler);
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  sim::RunReportCollector collector;
  engine.add_inspector(&collector);
  (void)engine.run();
  ASSERT_TRUE(checker.ok()) << checker.report().error;

  const sim::RunReport report = collector.report();
  ASSERT_TRUE(report.cluster.enabled);
  EXPECT_EQ(report.cluster.network_transfers, 1u);
  EXPECT_EQ(report.cluster.network_bytes, 10u);
  EXPECT_EQ(report.cluster.host_cache_fills, 1u);
  EXPECT_EQ(report.cluster.per_node[0].remote_fetches, 1u);
  EXPECT_EQ(report.cluster.per_node[1].remote_fetches, 0u);
  EXPECT_EQ(report.cluster.host_cache_evictions, 0u);
}

TEST(Engine, BoundedHostCacheEvictsUnderPressure) {
  // Node 0's host cache holds one 10-byte item; its GPU keeps fetching
  // distinct node-1-homed data, so every fill past the first evicts.
  core::TaskGraphBuilder builder;
  std::vector<DataId> remote;
  for (int i = 0; i < 8; ++i) {
    const DataId d = builder.add_data(10);
    if (d % 2 == 1) remote.push_back(d);  // homed on node 1
  }
  for (int t = 0; t < 8; ++t) {
    builder.add_task(1.0, {remote[static_cast<std::size_t>(t) % 4]});
  }
  const core::TaskGraph graph = builder.build();

  core::Platform platform = cluster_platform(2, 2);
  platform.host_memory_bytes = 10;
  sched::EagerScheduler scheduler;
  sim::RuntimeEngine engine(graph, platform, scheduler);
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  sim::RunReportCollector collector;
  engine.add_inspector(&collector);
  (void)engine.run();
  ASSERT_TRUE(checker.ok()) << checker.report().error;

  const sim::RunReport report = collector.report();
  // gpu0 executed several of the 8 tasks; each distinct remote input past
  // the first pushed the previous one out of the one-slot cache.
  EXPECT_GT(report.cluster.host_cache_evictions, 0u);
  EXPECT_EQ(report.cluster.host_cache_fills,
            report.cluster.network_transfers);
}

TEST(RunReport, SingleNodeReportIsBitIdenticalWithClusterKnobsSet) {
  // Strict generalization: num_nodes == 1 with every cluster knob set must
  // serialize byte-for-byte like the plain single-machine platform.
  const core::TaskGraph graph = work::make_matmul_2d({.n = 4});
  const auto run_to_json = [&graph](const core::Platform& platform) {
    sched::EagerScheduler scheduler;
    sim::RuntimeEngine engine(graph, platform, scheduler);
    sim::RunReportCollector collector;
    engine.add_inspector(&collector);
    (void)engine.run();
    return sim::run_report_to_json(collector.report());
  };

  const core::Platform plain = core::make_v100_platform(2, 200 * core::kMB);
  core::Platform knobs = plain;
  knobs.num_nodes = 1;
  knobs.host_memory_bytes = 64 * core::kMB;
  knobs.net_bandwidth_bytes_per_s = 1e9;
  knobs.net_latency_us = 500.0;
  EXPECT_EQ(run_to_json(plain), run_to_json(knobs));
}

TEST(RunReport, ClusterSectionSerializesPerNodeCounters) {
  const core::TaskGraph graph = work::make_matmul_2d({.n = 4});
  core::Platform platform = core::make_v100_platform(4, 200 * core::kMB);
  platform.num_nodes = 2;

  sched::EagerScheduler scheduler;
  sim::RuntimeEngine engine(graph, platform, scheduler);
  sim::RunReportCollector collector;
  engine.add_inspector(&collector);
  (void)engine.run();

  const std::string json = sim::run_report_to_json(collector.report());
  EXPECT_NE(json.find("\"cluster\":{\"enabled\":true,\"num_nodes\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"network_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"remote_fetches\":"), std::string::npos);
  EXPECT_NE(json.find("\"steals\":"), std::string::npos);
}

// ---- Decision pins ---------------------------------------------------------
//
// Whole locality runs pinned to their trace fingerprint, load and eviction
// counts and makespan (tests/decision_pin.hpp). Which GPU pulls when, and
// what a pull that finds the pool empty costs, are the engine's business:
// any change there must keep every pin. Each run also checks that it
// exercised the path it is named after.

using test::Pin;
using test::pin_of;

core::Platform v100_nodes(std::uint32_t gpus, std::uint32_t nodes,
                          std::uint64_t memory_mb) {
  core::Platform platform =
      core::make_v100_platform(gpus, memory_mb * core::kMB);
  platform.num_nodes = nodes;
  return platform;
}

/// A batch run of `graph` under locality, checker attached.
struct BatchRun {
  Pin pin;
  core::RunMetrics metrics;
  sim::RunReport report;
};

BatchRun run_batch(const core::TaskGraph& graph,
                   const core::Platform& platform,
                   const sim::FaultPlan* plan = nullptr) {
  cluster::LocalityScheduler locality;
  sim::RuntimeEngine engine(graph, platform, locality, {.seed = 7});
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  std::optional<sim::FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan);
    engine.set_fault_injector(&*injector);
  }
  const core::RunMetrics metrics = engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());
  return {pin_of(recorder.trace(), metrics), metrics, recorder.report()};
}

Pin run_single_node_matmul() {
  const BatchRun run =
      run_batch(work::make_matmul_2d({.n = 30}), v100_nodes(2, 1, 100));
  EXPECT_GT(run.metrics.total_evictions(), 0u);
  return run.pin;
}

Pin run_two_node_matmul() {
  const BatchRun run =
      run_batch(work::make_matmul_2d({.n = 30}), v100_nodes(4, 2, 100));
  EXPECT_GT(run.report.cluster.network_transfers, 0u);
  return run.pin;
}

Pin run_two_node_cholesky_dag() {
  const BatchRun run = run_batch(
      work::make_cholesky_tasks({.n = 12, .with_dependencies = true}),
      v100_nodes(4, 2, 100));
  EXPECT_GT(run.report.cluster.network_transfers, 0u);
  return run.pin;
}

Pin run_gpu_loss() {
  // Locality declines notify_gpu_lost: the orphans reach the survivors
  // through the engine's own reclaim queue.
  sim::FaultPlan plan;
  plan.gpu_losses.push_back({40'000.0, 1});
  const BatchRun run =
      run_batch(work::make_matmul_2d({.n = 30}), v100_nodes(4, 2, 100), &plan);
  EXPECT_EQ(run.metrics.faults.gpu_losses, 1u);
  EXPECT_GT(run.metrics.faults.tasks_reclaimed, 0u);
  return run.pin;
}

Pin run_gpu_loss_after_drain() {
  // The same loss once the pool has drained: the survivors' pulls find
  // nothing, and only the reclaim queue holds the orphans.
  sim::FaultPlan plan;
  plan.gpu_losses.push_back({330'000.0, 1});
  const BatchRun run =
      run_batch(work::make_matmul_2d({.n = 30}), v100_nodes(4, 2, 100), &plan);
  EXPECT_EQ(run.metrics.faults.gpu_losses, 1u);
  EXPECT_GT(run.metrics.faults.tasks_reclaimed, 0u);
  return run.pin;
}

Pin run_node_loss() {
  // Locality adopts the lost node's orphans through notify_node_lost.
  sim::FaultPlan plan;
  plan.node_losses.push_back({40'000.0, 1});
  const BatchRun run =
      run_batch(work::make_matmul_2d({.n = 30}), v100_nodes(4, 2, 100), &plan);
  EXPECT_EQ(run.metrics.faults.gpu_losses, 2u);
  EXPECT_GT(run.metrics.faults.tasks_reclaimed, 0u);
  return run.pin;
}

Pin run_tiered_stream() {
  // serve_cluster in miniature: Poisson arrivals in two tiers, high-tier
  // inputs protected from eviction, bursts fused into batches, and a
  // partition between two of three nodes that heals while remote fetches
  // run on deadlines and hedge to the third. The high tier uses the N=5
  // template (10 x 14 MB of inputs) and the low tier the N=6 one, so GPUs
  // evict around the protected set; as in serve_cluster the protected
  // inputs leave room for a task, below which the veto deadlocks (ROADMAP
  // open item 1).
  const std::vector<core::TaskGraph> templates = {
      work::make_matmul_2d({.n = 5}), work::make_matmul_2d({.n = 6})};
  std::vector<serve::JobSpec> jobs(60);
  for (std::uint32_t job = 0; job < jobs.size(); ++job) {
    jobs[job].graph = job % 2;
    jobs[job].priority = 1 - job % 2;
  }
  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 900.0;
  config.arrival.seed = 7;
  config.admission.max_jobs_in_flight = 4;
  config.engine.seed = 7;
  config.engine.fetch_timeout_factor = 6.0;
  config.engine.max_fetch_hedges = 2;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy{
      {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
       {.min_priority = 1, .deadline_us = 12e3, .admission_weight = 4}}};
  config.slo.protect_min_priority = 1;
  config.slo.batching = true;
  config.slo.max_batch = 4;
  config.slo.marginal_compute = 0.4;

  sim::FaultPlan plan;
  sim::FaultPlan::LinkFault partition;
  partition.src = 0;
  partition.dst = 1;
  partition.start_us = 1'000.0;
  partition.end_us = 21'000.0;
  partition.partition = true;
  plan.link_faults.push_back(partition);

  cluster::LocalityScheduler locality;
  serve::ServeEngine engine(templates, jobs, v100_nodes(6, 3, 200), locality,
                            config);
  sim::FaultInjector injector(plan);
  engine.set_fault_injector(&injector);
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  const serve::ServeResult result = engine.run();
  EXPECT_EQ(result.serving.jobs_completed, jobs.size());
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  const sim::RunReport report = recorder.report();
  EXPECT_GT(report.slo.jobs_fused, 0u);
  EXPECT_GT(report.network_faults.fetch_timeouts, 0u);
  EXPECT_GT(report.network_faults.hedged_fetches, 0u);
  EXPECT_GT(report.slo.evictions_vetoed, 0u);
  return pin_of(recorder.trace(), result.metrics);
}

struct PinCase {
  const char* name;
  Pin (*run)();
  Pin expected;
};

// Reference values: the engine polling every starved GPU after each task
// end and each data load gives these runs.
const PinCase kPinCases[] = {
    {"SingleNodeMatmul", run_single_node_matmul,
     {0x8df4eb61396faba8ULL, 844, 830, 751667.0550064136}},
    {"TwoNodeMatmul", run_two_node_matmul,
     {0xea0a62891303b717ULL, 704, 676, 336734.80532709585}},
    {"TwoNodeCholeskyDag", run_two_node_cholesky_dag,
     {0x189d783fb563452aULL, 338, 230, 53991.394864257294}},
    {"TieredStream", run_tiered_stream,
     {0x678db8274a3d5302ULL, 89, 6, 120931.4787123299}},
    {"GpuLoss", run_gpu_loss,
     {0x187741d0fb1b8b9cULL, 771, 746, 373278.49505772273}},
    {"GpuLossAfterDrain", run_gpu_loss_after_drain,
     {0xdbb57ccc889ec48cULL, 708, 682, 340680.69531426852}},
    {"NodeLoss", run_node_loss,
     {0xe883e87bc937a48cULL, 789, 765, 667528.5754168866}},
};

// gtest prints the parameter into each test's listed name; print the case
// name so that name does not carry the address of the name string.
void PrintTo(const PinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

class LocalityDecisionPin : public testing::TestWithParam<PinCase> {};

TEST_P(LocalityDecisionPin, RunRepeatsExactly) {
  const PinCase& pin_case = GetParam();
  const Pin actual = pin_case.run();
  EXPECT_EQ(actual.trace_hash, pin_case.expected.trace_hash);
  EXPECT_EQ(actual.loads, pin_case.expected.loads);
  EXPECT_EQ(actual.evictions, pin_case.expected.evictions);
  EXPECT_DOUBLE_EQ(actual.makespan_us, pin_case.expected.makespan_us);
}

INSTANTIATE_TEST_SUITE_P(Runs, LocalityDecisionPin,
                         testing::ValuesIn(kPinCases),
                         [](const testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mg
