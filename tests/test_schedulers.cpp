#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hierarchical.hpp"
#include "core/task_graph.hpp"
#include "decision_pin.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"
#include "sched/ready.hpp"
#include "sched/work_queue_scheduler.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "stub_memory.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace mg::sched {
namespace {

using core::DataId;
using core::TaskId;
using test::StubMemory;

core::Platform tiny_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;
  return platform;
}

TEST(Eager, PopsInSubmissionOrder) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 2, .data_bytes = 10});
  EagerScheduler eager;
  eager.prepare(graph, tiny_platform(2, 100), 0);
  StubMemory memory;
  for (TaskId expected = 0; expected < 4; ++expected) {
    EXPECT_EQ(eager.pop_task(expected % 2, memory), expected);
  }
  EXPECT_EQ(eager.pop_task(0, memory), core::kInvalidTask);
}

TEST(Ready, PicksTaskWithFewestMissingBytes) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  const DataId d2 = builder.add_data(10);
  builder.add_task(1.0, {d0, d1});  // t0: 1 missing with d0 present
  builder.add_task(1.0, {d0});      // t1: 0 missing
  builder.add_task(1.0, {d2});      // t2: 1 missing
  const core::TaskGraph graph = builder.build();

  StubMemory memory({d0});
  std::deque<TaskId> queue{0, 1, 2};
  EXPECT_EQ(pop_ready(queue, graph, memory), 1u);
  EXPECT_EQ(queue.size(), 2u);
  // Next best: t0 (10 missing bytes) vs t2 (10): tie -> earliest in queue.
  EXPECT_EQ(pop_ready(queue, graph, memory), 0u);
}

TEST(Ready, WindowBoundsTheLookahead) {
  core::TaskGraphBuilder builder;
  const DataId far = builder.add_data(10);
  const DataId near = builder.add_data(10);
  for (int i = 0; i < 5; ++i) builder.add_task(1.0, {far});
  builder.add_task(1.0, {near});  // index 5, outside window of 3
  const core::TaskGraph graph = builder.build();

  StubMemory memory({near});
  std::deque<TaskId> queue{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(pop_ready(queue, graph, memory, /*window=*/3), 0u);
  EXPECT_EQ(pop_ready(queue, graph, memory, /*window=*/16), 5u);
}

TEST(Ready, EmptyQueueReturnsInvalid) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 1, .data_bytes = 10});
  StubMemory memory;
  std::deque<TaskId> queue;
  EXPECT_EQ(pop_ready(queue, graph, memory), core::kInvalidTask);
}

/// Brute-force Ready choice: prices the first `window` eligible entries,
/// then takes the first minimum of missing bytes. queue.size() when no
/// entry is eligible.
std::size_t reference_ready_index(const std::deque<TaskId>& queue,
                                  const core::TaskGraph& graph,
                                  const std::set<DataId>& present,
                                  std::size_t window,
                                  const std::vector<std::uint8_t>* enabled) {
  std::vector<std::pair<std::uint64_t, std::size_t>> priced;
  for (std::size_t i = 0; i < queue.size() && priced.size() < window; ++i) {
    if (enabled != nullptr && (*enabled)[queue[i]] == 0) continue;
    std::uint64_t missing = 0;
    for (DataId data : graph.inputs(queue[i])) {
      if (!present.contains(data)) missing += graph.data_size(data);
    }
    priced.emplace_back(missing, i);
  }
  if (priced.empty()) return queue.size();
  return std::min_element(priced.begin(), priced.end())->second;
}

TEST(Ready, MatchesBruteForceOnRandomQueues) {
  // The builder rejects zero-size data and input-less tasks, so a task
  // prices at zero only when every input is resident; residency is drawn
  // dense enough that this happens often.
  const std::uint64_t kSizes[] = {1, 7, 10, 1000, 14'000'000, 1ULL << 40};
  util::Rng rng(2022);
  std::size_t free_picks = 0;
  std::size_t priced_picks = 0;
  for (int round = 0; round < 400; ++round) {
    core::TaskGraphBuilder builder;
    const auto num_data = static_cast<std::uint32_t>(1 + rng.below(10));
    for (std::uint32_t d = 0; d < num_data; ++d) {
      // Half the graphs draw equal sizes, so ties are common.
      builder.add_data(round % 2 == 0 ? 10 : kSizes[rng.below(6)]);
    }
    const auto num_tasks = static_cast<std::uint32_t>(1 + rng.below(40));
    for (std::uint32_t t = 0; t < num_tasks; ++t) {
      std::vector<DataId> inputs(num_data);
      for (DataId d = 0; d < num_data; ++d) inputs[d] = d;
      rng.shuffle(inputs);
      inputs.resize(1 + rng.below(std::min<std::uint32_t>(num_data, 4)));
      builder.add_task(1.0, inputs);
    }
    const core::TaskGraph graph = builder.build();

    std::deque<TaskId> queue;
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (rng.below(4) != 0) queue.push_back(t);
    }
    std::vector<TaskId> order(queue.begin(), queue.end());
    rng.shuffle(order);
    queue.assign(order.begin(), order.end());

    const std::size_t kWindows[] = {1, 2, 3, 8, kDefaultReadyWindow};
    const std::size_t window = kWindows[rng.below(5)];
    std::vector<std::uint8_t> mask(num_tasks, 1);
    const bool masked = rng.below(2) == 0;

    while (true) {
      std::set<DataId> present;
      const std::uint64_t density = rng.below(5);  // of 4
      for (DataId d = 0; d < num_data; ++d) {
        if (rng.below(4) < density) present.insert(d);
      }
      if (masked) {
        for (auto& bit : mask) bit = rng.below(3) != 0 ? 1 : 0;
      }
      const std::vector<std::uint8_t>* enabled = masked ? &mask : nullptr;
      const std::size_t expected_index =
          reference_ready_index(queue, graph, present, window, enabled);
      std::deque<TaskId> expected_rest = queue;
      TaskId expected = core::kInvalidTask;
      if (expected_index < queue.size()) {
        expected = queue[expected_index];
        expected_rest.erase(expected_rest.begin() +
                            static_cast<std::ptrdiff_t>(expected_index));
      }
      StubMemory memory(present);
      ASSERT_EQ(pop_ready(queue, graph, memory, window, enabled), expected)
          << "round " << round;
      ASSERT_EQ(queue, expected_rest) << "round " << round;
      if (expected == core::kInvalidTask) break;
      const bool all_present = std::all_of(
          graph.inputs(expected).begin(), graph.inputs(expected).end(),
          [&present](DataId data) { return present.contains(data); });
      ++(all_present ? free_picks : priced_picks);
    }
  }
  // Both outcomes occur: a task missing nothing, and one priced above zero.
  EXPECT_GT(free_picks, 0u);
  EXPECT_GT(priced_picks, 0u);
}

TEST(Dmda, BalancesIndependentTasksAcrossGpus) {
  // Tasks with disjoint data: completion-time model must spread them.
  core::TaskGraphBuilder builder;
  for (int i = 0; i < 8; ++i) {
    builder.add_task(100.0, {builder.add_data(10)});
  }
  const core::TaskGraph graph = builder.build();
  DmdaScheduler dmda(/*ready=*/false);
  dmda.prepare(graph, tiny_platform(2, 100), 0);
  EXPECT_EQ(dmda.queue(0).size(), 4u);
  EXPECT_EQ(dmda.queue(1).size(), 4u);
}

TEST(Dmda, PrefersGpuHoldingTheData) {
  // t0 and t1 share a data item; the predicted-InMem model should colocate
  // them even though gpu1 is idle (comm penalty dominates).
  core::TaskGraphBuilder builder;
  const DataId shared = builder.add_data(1000);
  builder.add_task(1.0, {shared});
  builder.add_task(1.0, {shared});
  const core::TaskGraph graph = builder.build();
  DmdaScheduler dmda(false);
  dmda.prepare(graph, tiny_platform(2, 10000), 0);
  EXPECT_EQ(dmda.queue(0).size(), 2u);
  EXPECT_TRUE(dmda.queue(1).empty());
}

TEST(Dmda, AllTasksAllocatedExactlyOnce) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 6, .data_bytes = 10});
  DmdaScheduler dmda;
  dmda.prepare(graph, tiny_platform(3, 1000), 0);
  std::vector<int> seen(graph.num_tasks(), 0);
  for (core::GpuId gpu = 0; gpu < 3; ++gpu) {
    for (TaskId task : dmda.queue(gpu)) ++seen[task];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int count) { return count == 1; }));
}

/// Minimal WorkQueueScheduler: round-robin partition in submission order.
class RoundRobinScheduler final : public WorkQueueScheduler {
 public:
  RoundRobinScheduler(bool stealing, bool ready)
      : WorkQueueScheduler(stealing, ready) {}
  [[nodiscard]] std::string_view name() const override { return "RR"; }

 protected:
  void partition(const core::TaskGraph& graph, const core::Platform& platform,
                 std::uint64_t, std::vector<std::deque<TaskId>>& queues) override {
    for (TaskId task = 0; task < graph.num_tasks(); ++task) {
      queues[task % platform.num_gpus].push_back(task);
    }
  }
};

TEST(WorkQueue, StealsHalfFromMostLoaded) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 9; ++i) builder.add_task(1.0, {d});
  const core::TaskGraph graph = builder.build();

  RoundRobinScheduler scheduler(/*stealing=*/true, /*ready=*/false);
  // Partition over 3 GPUs: 3 tasks each; drain gpu0, then it steals.
  scheduler.prepare(graph, tiny_platform(3, 100), 0);
  StubMemory memory;
  (void)scheduler.pop_task(0, memory);
  (void)scheduler.pop_task(0, memory);
  (void)scheduler.pop_task(0, memory);
  EXPECT_EQ(scheduler.queue(0).size(), 0u);
  const TaskId stolen = scheduler.pop_task(0, memory);
  EXPECT_NE(stolen, core::kInvalidTask);
  EXPECT_EQ(scheduler.steal_events(), 1u);
  // Victim had 3; thief took floor(3/2) = 1 (then popped it).
  EXPECT_EQ(scheduler.queue(1).size() + scheduler.queue(2).size(), 5u);
}

TEST(WorkQueue, NoStealingReturnsInvalidWhenDrained) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 4; ++i) builder.add_task(1.0, {d});
  const core::TaskGraph graph = builder.build();

  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  scheduler.prepare(graph, tiny_platform(2, 100), 0);
  StubMemory memory;
  (void)scheduler.pop_task(0, memory);
  (void)scheduler.pop_task(0, memory);
  EXPECT_EQ(scheduler.pop_task(0, memory), core::kInvalidTask);
  EXPECT_EQ(scheduler.queue(1).size(), 2u);
}

TEST(WorkQueue, StealTakesTailPreservingOrder) {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {d});
  const core::TaskGraph graph = builder.build();

  RoundRobinScheduler scheduler(true, false);
  scheduler.prepare(graph, tiny_platform(2, 100), 0);
  // gpu0 holds {0,2,4,6}, gpu1 holds {1,3,5,7}. Drain gpu0.
  StubMemory memory;
  for (int i = 0; i < 4; ++i) (void)scheduler.pop_task(0, memory);
  // Steal: takes tail half of gpu1 = {5,7}; next pop returns 5.
  EXPECT_EQ(scheduler.pop_task(0, memory), 5u);
  EXPECT_EQ(scheduler.pop_task(0, memory), 7u);
  EXPECT_EQ(scheduler.queue(1).size(), 2u);
}

TEST(Hmetis, EndToEndOnMatmul) {
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 6, .data_bytes = 10});
  HmetisScheduler scheduler;
  sim::RuntimeEngine engine(graph, tiny_platform(2, 500), scheduler);
  const core::RunMetrics metrics = engine.run();
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed +
                metrics.per_gpu[1].tasks_executed,
            graph.num_tasks());
  // Partition must be roughly balanced before stealing; with stealing the
  // executed split stays within a factor.
  EXPECT_GT(metrics.per_gpu[0].tasks_executed, 0u);
  EXPECT_GT(metrics.per_gpu[1].tasks_executed, 0u);
}

/// Streamed graph for the priority tests: two 4-task jobs over one shared
/// data item, all landing on one GPU so dispatch order is the contention.
core::TaskGraph make_two_job_graph() {
  core::TaskGraphBuilder builder;
  const DataId d = builder.add_data(10);
  for (int i = 0; i < 8; ++i) builder.add_task(1.0, {d});
  return builder.build();
}

TEST(WorkQueue, HighPriorityJobDispatchesFirstUnderContention) {
  const core::TaskGraph graph = make_two_job_graph();
  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  ASSERT_TRUE(scheduler.begin_streaming());  // before prepare, as the
  scheduler.prepare(graph, tiny_platform(1, 100), 0);  // serving engine does

  // ServeEngine order: every job's priority is announced before arrivals.
  scheduler.notify_job_priority(0, 0);
  scheduler.notify_job_priority(1, 5);
  const std::vector<TaskId> job0 = {0, 1, 2, 3};
  const std::vector<TaskId> job1 = {4, 5, 6, 7};
  scheduler.notify_job_arrived(0, job0);
  scheduler.notify_job_arrived(1, job1);

  // Job 1 queued second but outranks job 0: its tasks pop first, each job
  // internally in submission order.
  StubMemory memory;
  const std::vector<TaskId> expected = {4, 5, 6, 7, 0, 1, 2, 3};
  for (const TaskId want : expected) {
    EXPECT_EQ(scheduler.pop_task(0, memory), want);
  }
  EXPECT_EQ(scheduler.pop_task(0, memory), core::kInvalidTask);
}

TEST(WorkQueue, HighPriorityArrivalPreemptsQueuedBacklog) {
  const core::TaskGraph graph = make_two_job_graph();
  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  ASSERT_TRUE(scheduler.begin_streaming());  // before prepare, as the
  scheduler.prepare(graph, tiny_platform(1, 100), 0);  // serving engine does
  scheduler.notify_job_priority(0, 0);
  scheduler.notify_job_priority(1, 9);

  StubMemory memory;
  const std::vector<TaskId> job0 = {0, 1, 2, 3};
  scheduler.notify_job_arrived(0, job0);
  EXPECT_EQ(scheduler.pop_task(0, memory), 0u);  // backlog starts draining

  // The high-priority job lands mid-stream: it jumps the remaining backlog.
  const std::vector<TaskId> job1 = {4, 5, 6, 7};
  scheduler.notify_job_arrived(1, job1);
  const std::vector<TaskId> expected = {4, 5, 6, 7, 1, 2, 3};
  for (const TaskId want : expected) {
    EXPECT_EQ(scheduler.pop_task(0, memory), want);
  }
}

TEST(WorkQueue, AllZeroPrioritiesKeepFifoOrder) {
  const core::TaskGraph graph = make_two_job_graph();
  RoundRobinScheduler scheduler(/*stealing=*/false, /*ready=*/false);
  ASSERT_TRUE(scheduler.begin_streaming());  // before prepare, as the
  scheduler.prepare(graph, tiny_platform(1, 100), 0);  // serving engine does
  scheduler.notify_job_priority(0, 0);
  scheduler.notify_job_priority(1, 0);
  const std::vector<TaskId> job0 = {0, 1, 2, 3};
  const std::vector<TaskId> job1 = {4, 5, 6, 7};
  scheduler.notify_job_arrived(0, job0);
  scheduler.notify_job_arrived(1, job1);

  StubMemory memory;
  for (TaskId want = 0; want < 8; ++want) {
    EXPECT_EQ(scheduler.pop_task(0, memory), want);
  }
}

// --- Decision pins ----------------------------------------------------------
//
// Whole runs of the schedulers that pop through `pop_ready` (hMETIS+R, mHFP,
// DMDAR), with their trace, load and eviction counts and makespan pinned to
// constants: a change in which queued task a Ready pop picks moves at least
// one of them. Scheduler cost accounting stays off (the engine default), so
// no measured wall time reaches the makespan.

using test::Pin;
using test::pin_of;

Pin run_batch(const core::TaskGraph& graph, core::Scheduler& scheduler,
              std::uint32_t gpus, std::uint64_t memory_mb,
              std::uint32_t nodes = 1) {
  core::Platform platform =
      core::make_v100_platform(gpus, memory_mb * core::kMB);
  platform.num_nodes = nodes;
  sim::RuntimeEngine engine(graph, platform, scheduler, {.seed = 7});
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();
  EXPECT_GT(metrics.total_evictions(), 0u);  // memory-constrained
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  return pin_of(recorder.trace(), metrics);
}

Pin run_hmetis_stealing() {
  HmetisScheduler hmetis;
  const Pin pin = run_batch(work::make_matmul_2d({.n = 30}), hmetis, 4, 100);
  EXPECT_GT(hmetis.steal_events(), 0u);
  return pin;
}

Pin run_hierarchical_hmetis() {
  // Two nodes of two GPUs: each node's hMETIS+R prices its Ready pops
  // through the wrapper's id-translating view, and a drained node steals
  // from the other node.
  cluster::HierarchicalScheduler hierarchical(
      [] { return std::make_unique<HmetisScheduler>(); });
  const Pin pin = run_batch(work::make_matmul_2d({.n = 20}), hierarchical, 4,
                            100, /*nodes=*/2);
  EXPECT_GT(hierarchical.steal_count(), 0u);
  return pin;
}

Pin run_mhfp() {
  HfpScheduler mhfp;
  return run_batch(work::make_matmul_2d({.n = 30}), mhfp, 2, 150);
}

Pin run_dmdar() {
  DmdaScheduler dmdar;
  return run_batch(work::make_random_bipartite({.num_tasks = 600,
                                                .num_data = 150,
                                                .min_inputs = 1,
                                                .max_inputs = 3,
                                                .seed = 5}),
                   dmdar, 2, 150);
}

Pin run_dmdar_window() {
  // abl_ready_window's scheduler: Ready over the first 8 queued tasks.
  DmdaScheduler dmdar(/*ready=*/true, /*ready_window=*/8);
  return run_batch(work::make_matmul_2d({.n = 30}), dmdar, 2, 100);
}

Pin run_hmetis_cholesky_dag() {
  // Dependency-gated pops: Ready chooses among the enabled tasks only.
  HmetisScheduler hmetis;
  return run_batch(
      work::make_cholesky_tasks({.n = 12, .with_dependencies = true}), hmetis,
      4, 100);
}

Pin run_mhfp_tiered_stream() {
  // Closed-loop arrivals in two priorities: each pop first promotes the
  // queue's top-priority run, and Ready picks within it.
  const std::vector<core::TaskGraph> templates = {
      work::make_matmul_2d({.n = 5}), work::make_matmul_2d({.n = 6})};
  std::vector<serve::JobSpec> jobs(24);
  for (std::uint32_t job = 0; job < jobs.size(); ++job) {
    jobs[job].graph = job % 2;
    jobs[job].priority = (job / 2) % 2;
  }
  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 4;
  config.engine.seed = 7;
  HfpScheduler mhfp;
  serve::ServeEngine engine(templates, jobs,
                            core::make_v100_platform(2, 100 * core::kMB),
                            mhfp, config);
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  const serve::ServeResult result = engine.run();
  EXPECT_EQ(result.serving.jobs_completed, jobs.size());
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  return pin_of(recorder.trace(), result.metrics);
}

struct PinCase {
  const char* name;
  Pin (*run)();
  Pin expected;
};

// Reference values: pricing every inspected task in full gives these runs.
const PinCase kPinCases[] = {
    {"HmetisMatmul2dStealing", run_hmetis_stealing,
     {0x589f032c8640251dULL, 849, 821, 756117.0550064136}},
    {"Mhfp", run_mhfp,
     {0xfb41410c728c21ecULL, 371, 351, 348657.08594280656}},
    {"Dmdar", run_dmdar,
     {0x77b176cdccd412eaULL, 753, 733, 671928.77008979092}},
    {"DmdarWindow8", run_dmdar_window,
     {0x0eda3d877904029eULL, 960, 946, 854907.0550064136}},
    {"HmetisCholeskyDag", run_hmetis_cholesky_dag,
     {0x6f998e6677355550ULL, 266, 158, 66965.719354108733}},
    {"MhfpTieredStream", run_mhfp_tiered_stream,
     {0xa8be1c40dbed1da9ULL, 456, 442, 428781.58530144137}},
    {"HierarchicalHmetis", run_hierarchical_hmetis,
     {0x849a6c52d098b475ULL, 379, 351, 185244.11001282727}},
};

// gtest prints the parameter into each test's listed name; print the case
// name so that name does not carry the address of the name string.
void PrintTo(const PinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

class WorkQueueDecisionPin : public testing::TestWithParam<PinCase> {};

TEST_P(WorkQueueDecisionPin, RunRepeatsExactly) {
  const PinCase& pin_case = GetParam();
  const Pin actual = pin_case.run();
  EXPECT_EQ(actual.trace_hash, pin_case.expected.trace_hash)
      << "actual 0x" << std::hex << actual.trace_hash;
  EXPECT_EQ(actual.loads, pin_case.expected.loads);
  EXPECT_EQ(actual.evictions, pin_case.expected.evictions);
  EXPECT_DOUBLE_EQ(actual.makespan_us, pin_case.expected.makespan_us);
}

INSTANTIATE_TEST_SUITE_P(Runs, WorkQueueDecisionPin,
                         testing::ValuesIn(kPinCases),
                         [](const testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mg::sched
