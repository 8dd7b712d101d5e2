// Incremental DARTS (the paper's "improve the computational complexity of
// DARTS" future work): n(D) maintained under load/evict/plan events instead
// of rescanned. These tests check counter consistency against brute-force
// recomputation and end-to-end behaviour against the scan variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/darts.hpp"
#include "core/task_graph.hpp"
#include "sim/engine.hpp"
#include "sim/invariant_checker.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace mg::core {
namespace {

core::Platform one_gpu() {
  core::Platform platform;
  platform.num_gpus = 1;
  platform.gpu_memory_bytes = 1000;
  return platform;
}

/// MemoryView mirroring an explicit resident set (what the incremental
/// variant tracks through notifications).
class MirrorMemory final : public MemoryView {
 public:
  explicit MirrorMemory(std::uint32_t num_data) : present_(num_data, false) {}
  [[nodiscard]] bool is_present(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] bool is_present_or_fetching(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return 1000; }
  [[nodiscard]] std::uint64_t used_bytes() const override { return 0; }
  std::vector<bool> present_;
};

TEST(DartsIncremental, RejectsIncompatibleVariantCombos) {
  DartsScheduler bad{DartsOptions{.use_luf = true, .three_inputs = true,
                                  .incremental = true}};
  const TaskGraph graph = work::make_matmul_2d({.n = 2, .data_bytes = 10});
  EXPECT_DEATH(bad.prepare(graph, one_gpu(), 1), "does not compose");
}

TEST(DartsIncremental, NameCarriesTheVariantTag) {
  EXPECT_EQ(darts_variant_name({.use_luf = true, .incremental = true}),
            "DARTS+LUF+incr");
}

TEST(DartsIncremental, MatchesScanDecisionsWithoutPrefetchEffects) {
  // Drive both variants through an identical notification sequence (loads
  // announced immediately, like a pipeline-depth-1 run) and check they make
  // the same planning decisions.
  const TaskGraph graph = work::make_matmul_2d({.n = 5, .data_bytes = 10});
  DartsScheduler scan{DartsOptions{.use_luf = true}};
  DartsScheduler incremental{
      DartsOptions{.use_luf = true, .incremental = true}};
  scan.prepare(graph, one_gpu(), 9);
  incremental.prepare(graph, one_gpu(), 9);

  MirrorMemory memory(graph.num_data());
  for (int step = 0; step < 25; ++step) {
    const TaskId a = scan.pop_task(0, memory);
    const TaskId b = incremental.pop_task(0, memory);
    ASSERT_EQ(a, b) << "step " << step;
    if (a == kInvalidTask) break;
    // Announce the inputs as loaded to both (and to the mirror view).
    for (DataId data : graph.inputs(a)) {
      if (!memory.present_[data]) {
        memory.present_[data] = true;
        scan.notify_data_loaded(0, data);
        incremental.notify_data_loaded(0, data);
      }
    }
    scan.notify_task_complete(0, a);
    incremental.notify_task_complete(0, b);
  }
}

TEST(DartsIncremental, CountersSurviveEvictionChurn) {
  // Random load/evict churn; afterwards the scheduler must still issue every
  // task exactly once (the MG_CHECK on counter desync guards the rest).
  const TaskGraph graph = work::make_random_bipartite(
      {.num_tasks = 80, .num_data = 16, .min_inputs = 1, .max_inputs = 3,
       .data_bytes = 10, .seed = 21});
  DartsScheduler darts{DartsOptions{.use_luf = true, .incremental = true}};
  core::Platform platform = one_gpu();
  darts.prepare(graph, platform, 3);

  MirrorMemory memory(graph.num_data());
  util::Rng rng(7);
  std::vector<int> executed(graph.num_tasks(), 0);
  std::uint32_t done = 0;
  while (done < graph.num_tasks()) {
    const TaskId task = darts.pop_task(0, memory);
    ASSERT_NE(task, kInvalidTask);
    for (DataId data : graph.inputs(task)) {
      if (!memory.present_[data]) {
        memory.present_[data] = true;
        darts.notify_data_loaded(0, data);
      }
    }
    // Random eviction of an unrelated resident data between tasks.
    if (rng.chance(0.6)) {
      const auto inputs = graph.inputs(task);
      std::vector<DataId> evictable;
      for (DataId data = 0; data < graph.num_data(); ++data) {
        if (memory.present_[data] &&
            std::find(inputs.begin(), inputs.end(), data) == inputs.end()) {
          evictable.push_back(data);
        }
      }
      if (!evictable.empty()) {
        const DataId victim = evictable[rng.pick_index(evictable)];
        memory.present_[victim] = false;
        darts.on_evict(0, victim);
        darts.notify_data_evicted(0, victim);
      }
    }
    darts.notify_task_complete(0, task);
    ++executed[task];
    ++done;
  }
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    EXPECT_EQ(executed[task], 1);
  }
}

TEST(DartsIncremental, FreeCountMatchesFromScratchRecount) {
  // Audit of incremental_availability_change: after every pop / load /
  // evict / complete event, n(D) on every GPU must equal a from-scratch
  // recount over the available pool (available = neither popped nor
  // reserved in any plannedTasks; D counts for task t when D is t's sole
  // absent input on that GPU).
  const TaskGraph graph = work::make_random_bipartite(
      {.num_tasks = 60, .num_data = 14, .min_inputs = 1, .max_inputs = 3,
       .data_bytes = 10, .seed = 33});
  DartsScheduler darts{DartsOptions{.use_luf = true, .incremental = true}};
  core::Platform platform;
  platform.num_gpus = 2;
  platform.gpu_memory_bytes = 1000;
  darts.prepare(graph, platform, 5);

  std::vector<MirrorMemory> memory(2, MirrorMemory(graph.num_data()));
  std::vector<std::vector<TaskId>> uncompleted(2);
  std::vector<std::uint8_t> popped(graph.num_tasks(), 0);
  util::Rng rng(17);

  auto is_available = [&](TaskId task) {
    if (popped[task] != 0) return false;
    for (GpuId gpu = 0; gpu < 2; ++gpu) {
      const auto& planned = darts.planned_tasks(gpu);
      if (std::find(planned.begin(), planned.end(), task) != planned.end()) {
        return false;
      }
    }
    return true;
  };

  auto audit = [&](const char* when, int step) {
    for (GpuId gpu = 0; gpu < 2; ++gpu) {
      std::vector<std::uint32_t> expected(graph.num_data(), 0);
      for (TaskId task = 0; task < graph.num_tasks(); ++task) {
        if (!is_available(task)) continue;
        DataId sole = kInvalidData;
        std::uint32_t absent = 0;
        for (DataId data : graph.inputs(task)) {
          if (!memory[gpu].present_[data]) {
            ++absent;
            sole = data;
          }
        }
        if (absent == 1) ++expected[sole];
      }
      for (DataId data = 0; data < graph.num_data(); ++data) {
        EXPECT_EQ(darts.incremental_in_mem(gpu, data),
                  static_cast<bool>(memory[gpu].present_[data]))
            << "in_mem mirror diverged after " << when << " at step " << step
            << " (gpu " << gpu << ", d" << data << ")";
        EXPECT_EQ(darts.incremental_free_count(gpu, data), expected[data])
            << "n(D) diverged after " << when << " at step " << step
            << " (gpu " << gpu << ", d" << data << ")";
      }
    }
  };

  audit("prepare", 0);
  std::uint32_t done = 0;
  int step = 0;
  while (done < graph.num_tasks()) {
    ASSERT_FALSE(testing::Test::HasFailure()) << "stopping at first divergence";
    ++step;
    const GpuId gpu = static_cast<GpuId>(rng.below(2));
    const TaskId task = darts.pop_task(gpu, memory[gpu]);
    if (task == kInvalidTask) {
      // Everything left is popped-but-uncompleted: drain one.
      bool drained = false;
      for (GpuId g = 0; g < 2 && !drained; ++g) {
        if (!uncompleted[g].empty()) {
          const TaskId finished = uncompleted[g].front();
          uncompleted[g].erase(uncompleted[g].begin());
          darts.notify_task_complete(g, finished);
          ++done;
          drained = true;
          audit("drain", step);
        }
      }
      ASSERT_TRUE(drained) << "scheduler starved with tasks remaining";
      continue;
    }
    popped[task] = 1;
    uncompleted[gpu].push_back(task);
    audit("pop", step);

    for (DataId data : graph.inputs(task)) {
      if (!memory[gpu].present_[data]) {
        memory[gpu].present_[data] = true;
        darts.on_load(gpu, data);
        darts.notify_data_loaded(gpu, data);
        audit("load", step);
      }
    }

    // Random eviction of resident data no uncompleted task still reads
    // (mirrors the engine, which cannot evict pinned inputs).
    if (rng.chance(0.5)) {
      std::vector<DataId> evictable;
      for (DataId data = 0; data < graph.num_data(); ++data) {
        if (!memory[gpu].present_[data]) continue;
        bool in_use = false;
        for (TaskId pending : uncompleted[gpu]) {
          const auto inputs = graph.inputs(pending);
          if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
            in_use = true;
            break;
          }
        }
        if (!in_use) evictable.push_back(data);
      }
      if (!evictable.empty()) {
        const DataId victim = evictable[rng.pick_index(evictable)];
        darts.on_evict(gpu, victim);
        memory[gpu].present_[victim] = false;
        darts.notify_data_evicted(gpu, victim);
        audit("evict", step);
      }
    }

    // Completions lag pops so several tasks sit in the buffer at once.
    while (uncompleted[gpu].size() > 2 ||
           (!uncompleted[gpu].empty() && rng.chance(0.4))) {
      const TaskId finished = uncompleted[gpu].front();
      uncompleted[gpu].erase(uncompleted[gpu].begin());
      darts.notify_task_complete(gpu, finished);
      ++done;
      audit("complete", step);
    }
  }
}

class IncrementalEndToEnd : public testing::TestWithParam<int> {};

TEST_P(IncrementalEndToEnd, RunsCompleteAndStayClose) {
  core::TaskGraph graph = [&]() -> core::TaskGraph {
    switch (GetParam()) {
      case 0:
        return work::make_matmul_2d({.n = 12, .data_bytes = 14 * kMB});
      case 1:
        return work::make_cholesky_tasks({.n = 10});
      default:
        return work::make_sparse_matmul(
            {.n = 40, .keep_fraction = 0.05, .seed = 4});
    }
  }();
  const core::Platform platform = make_v100_platform(2, 150 * kMB);

  auto run = [&](bool incremental) {
    DartsScheduler darts{
        DartsOptions{.use_luf = true, .incremental = incremental}};
    sim::RuntimeEngine engine(graph, platform, darts, {.seed = 11});
    sim::InvariantChecker checker({.fail_fast = false});
    engine.add_inspector(&checker);
    const RunMetrics metrics = engine.run();
    EXPECT_TRUE(checker.ok()) << checker.report().error;
    std::uint64_t executed = 0;
    for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
    EXPECT_EQ(executed, graph.num_tasks());
    return metrics.total_bytes_loaded();
  };

  const auto scan_bytes = run(false);
  const auto incremental_bytes = run(true);
  // Decisions differ (loaded-vs-fetching semantics) but the schedule quality
  // must stay in the same league.
  EXPECT_LT(static_cast<double>(incremental_bytes),
            1.6 * static_cast<double>(scan_bytes));
}

INSTANTIATE_TEST_SUITE_P(Workloads, IncrementalEndToEnd,
                         testing::Values(0, 1, 2));

TEST(DartsIncremental, DecisionCostBeatsScanOnWideGraphs) {
  // The point of the variant: planning cost per round is O(|data|), not
  // the full scan's O(consumer degree of the resident data). Compare
  // accumulated pop wall time.
  const TaskGraph graph = work::make_matmul_2d({.n = 48});
  const core::Platform platform = make_v100_platform(1);

  auto pop_cost = [&](bool incremental) {
    DartsScheduler darts{
        DartsOptions{.use_luf = true, .incremental = incremental}};
    sim::RuntimeEngine engine(graph, platform, darts, {.seed = 2});
    return engine.run().scheduler_pop_us;
  };

  const double scan_us = pop_cost(false);
  const double incremental_us = pop_cost(true);
  // Generous factor: wall-clock comparisons on shared machines are noisy,
  // but a ~48x degree reduction should comfortably halve the cost.
  EXPECT_LT(incremental_us, 0.7 * scan_us)
      << "scan " << scan_us << "us vs incremental " << incremental_us << "us";
}

}  // namespace
}  // namespace mg::core
