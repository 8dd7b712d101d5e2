#include "core/darts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/hierarchical.hpp"
#include "core/task_graph.hpp"
#include "decision_pin.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "stub_memory.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace mg::core {
namespace {

using test::StubMemory;

core::Platform one_gpu_platform() {
  core::Platform platform;
  platform.num_gpus = 1;
  platform.gpu_memory_bytes = 1000;
  return platform;
}

TEST(DartsName, ComposesVariantNames) {
  EXPECT_EQ(darts_variant_name({.use_luf = false}), "DARTS");
  EXPECT_EQ(darts_variant_name({}), "DARTS+LUF");
  EXPECT_EQ(darts_variant_name({.use_luf = true, .three_inputs = true}),
            "DARTS+LUF-3inputs");
  EXPECT_EQ(darts_variant_name({.use_luf = true, .three_inputs = true,
                                .opti = true}),
            "DARTS+LUF+OPTI-3inputs");
  EXPECT_EQ(darts_variant_name({.use_luf = true, .scan_threshold = 10}),
            "DARTS+LUF+threshold");
}

TEST(Darts, PlansFreeTasksEnabledByOneLoad) {
  // 2x2 blocked matmul; rowA_0 (data 0) resident: loading either column
  // frees exactly one task of row 0.
  const TaskGraph graph = work::make_matmul_2d({.n = 2, .data_bytes = 10});
  DartsScheduler darts;
  darts.prepare(graph, one_gpu_platform(), 1);
  StubMemory memory({0});  // rowA_0

  const TaskId task = darts.pop_task(0, memory);
  // Tasks are row-major: T00=0, T01=1 are the row-0 tasks.
  EXPECT_TRUE(task == 0 || task == 1);
}

TEST(Darts, TieBreakPrefersDataWithMoreConsumers) {
  // d_present resident. d_a frees t0 and has 3 consumers total; d_b frees t1
  // with only 2 consumers: DARTS must pick d_a.
  TaskGraphBuilder builder;
  const DataId d_present = builder.add_data(10);
  const DataId d_a = builder.add_data(10);
  const DataId d_b = builder.add_data(10);
  const DataId d_x = builder.add_data(10);
  const TaskId t0 = builder.add_task(1.0, {d_present, d_a});
  builder.add_task(1.0, {d_present, d_b});
  builder.add_task(1.0, {d_a, d_x});       // extra consumers of d_a
  builder.add_task(1.0, {d_a, d_x});
  builder.add_task(1.0, {d_b, d_x});
  const TaskGraph graph = builder.build();

  DartsScheduler darts;
  darts.prepare(graph, one_gpu_platform(), 7);
  StubMemory memory({d_present});
  EXPECT_EQ(darts.pop_task(0, memory), t0);
}

TEST(Darts, FreeCountsCoverFetchingDataAndSingleInputTasks) {
  // Nothing was announced loaded, so every data is still listed. p is
  // present and f fetching; s, a and b are absent. The free counts are
  // n(s) = 4 (single-input tasks on an absent data), n(f) = 3 (two tasks
  // with every input resident plus a single-input one, all free through the
  // listed-but-fetching f), n(p) = 2 (the same two all-resident tasks) and
  // n(a) = 1; the task on a and b is two loads away and counts nowhere.
  TaskGraphBuilder builder;
  const DataId p = builder.add_data(10);
  const DataId f = builder.add_data(10);
  const DataId s = builder.add_data(10);
  const DataId a = builder.add_data(10);
  const DataId b = builder.add_data(10);
  const TaskId t_pf0 = builder.add_task(1.0, {p, f});
  const TaskId t_pf1 = builder.add_task(1.0, {p, f});
  const TaskId t_f = builder.add_task(1.0, {f});
  std::vector<TaskId> order;
  for (int i = 0; i < 4; ++i) order.push_back(builder.add_task(1.0, {s}));
  const TaskId t_pa = builder.add_task(1.0, {p, a});
  const TaskId t_ab = builder.add_task(1.0, {a, b});
  const TaskGraph graph = builder.build();
  order.insert(order.end(), {t_pf0, t_pf1, t_f, t_pa, t_ab});

  DartsScheduler darts;
  darts.prepare(graph, one_gpu_platform(), 1);
  StubMemory memory({p}, {f});
  // s plans its four tasks, then f its three, then a the one on p; the
  // last task frees nothing and comes from the random fallback.
  for (const TaskId expected : order) {
    EXPECT_EQ(darts.pop_task(0, memory), expected);
  }
  EXPECT_EQ(darts.pop_task(0, memory), kInvalidTask);
}

TEST(Darts, RandomTaskWhenNothingIsFree) {
  const TaskGraph graph = work::make_matmul_2d({.n = 3, .data_bytes = 10});
  DartsScheduler darts(DartsOptions{.use_luf = false});
  darts.prepare(graph, one_gpu_platform(), 3);
  StubMemory memory;  // empty: every task needs 2 loads
  const TaskId task = darts.pop_task(0, memory);
  EXPECT_NE(task, kInvalidTask);
  // The random path buffers the task directly without planning anything.
  EXPECT_TRUE(darts.planned_tasks(0).empty());
}

TEST(Darts, PlannedTasksAreServedBeforeNewPlanning) {
  TaskGraphBuilder builder;
  const DataId d_present = builder.add_data(10);
  const DataId d_new = builder.add_data(10);
  const TaskId t0 = builder.add_task(1.0, {d_present, d_new});
  const TaskId t1 = builder.add_task(1.0, {d_present, d_new});
  const TaskId t2 = builder.add_task(1.0, {d_present, d_new});
  const TaskGraph graph = builder.build();

  DartsScheduler darts;
  darts.prepare(graph, one_gpu_platform(), 1);
  StubMemory memory({d_present});
  const TaskId first = darts.pop_task(0, memory);
  EXPECT_EQ(first, t0);
  EXPECT_EQ(darts.planned_tasks(0).size(), 2u);
  EXPECT_EQ(darts.pop_task(0, memory), t1);
  EXPECT_EQ(darts.pop_task(0, memory), t2);
  EXPECT_EQ(darts.pop_task(0, memory), kInvalidTask);
  (void)first;
}

TEST(Darts, ThresholdSkipsDataOutsideTheWindow) {
  // Data id 0 frees nothing; data id 1 frees two tasks. A threshold of 1
  // only scans data 0, so nothing is planned; unlimited scan plans both
  // enabled tasks.
  TaskGraphBuilder builder;
  const DataId d_useless = builder.add_data(10);
  const DataId d_enabler = builder.add_data(10);
  const DataId d_present = builder.add_data(10);
  const DataId d_far = builder.add_data(10);
  builder.add_task(1.0, {d_useless, d_far});
  const TaskId t_a = builder.add_task(1.0, {d_present, d_enabler});
  builder.add_task(1.0, {d_present, d_enabler});
  const TaskGraph graph = builder.build();
  (void)t_a;

  StubMemory memory({d_present});

  DartsScheduler unlimited{DartsOptions{.use_luf = false}};
  unlimited.prepare(graph, one_gpu_platform(), 5);
  (void)unlimited.pop_task(0, memory);
  EXPECT_EQ(unlimited.planned_tasks(0).size(), 1u);  // planned 2, popped 1

  DartsScheduler limited{DartsOptions{.use_luf = false, .scan_threshold = 1}};
  limited.prepare(graph, one_gpu_platform(), 5);
  (void)limited.pop_task(0, memory);
  EXPECT_TRUE(limited.planned_tasks(0).empty());  // fell back to random
}

TEST(Darts, ThreeInputsVariantFindsTwoLoadTask) {
  // Empty memory. d_hub is shared by three 2-input tasks: each is one load
  // away once d_hub is chosen, so the 3inputs scan must return one of them
  // instead of a uniformly random task.
  TaskGraphBuilder builder;
  const DataId d_hub = builder.add_data(10);
  std::vector<TaskId> hub_tasks;
  for (int i = 0; i < 3; ++i) {
    const DataId other = builder.add_data(10);
    hub_tasks.push_back(builder.add_task(1.0, {d_hub, other}));
  }
  // Decoys with 3 inputs (two loads away even with d_hub).
  const DataId e0 = builder.add_data(10);
  const DataId e1 = builder.add_data(10);
  const DataId e2 = builder.add_data(10);
  for (int i = 0; i < 5; ++i) builder.add_task(1.0, {e0, e1, e2});
  const TaskGraph graph = builder.build();

  DartsScheduler darts{DartsOptions{.use_luf = true, .three_inputs = true}};
  darts.prepare(graph, one_gpu_platform(), 11);
  StubMemory memory;
  const TaskId task = darts.pop_task(0, memory);
  EXPECT_TRUE(std::find(hub_tasks.begin(), hub_tasks.end(), task) !=
              hub_tasks.end());
}

TEST(Darts, OptiStopsAtFirstEnablingData) {
  const TaskGraph graph = work::make_matmul_2d({.n = 3, .data_bytes = 10});
  DartsScheduler darts{DartsOptions{.use_luf = true, .opti = true}};
  darts.prepare(graph, one_gpu_platform(), 2);
  StubMemory memory({0});  // rowA_0 resident
  const TaskId task = darts.pop_task(0, memory);
  // Must be a row-0 task (the only free tasks); OPTI picks the first
  // enabling data in scan order, which is colB_0 (data id 3) -> task 0.
  EXPECT_EQ(task, 0u);
}

TEST(Darts, EvictedDataRejoinsScanListAtTheTail) {
  // OPTI picks the first enabling data in scan order; after an eviction the
  // data re-enters at the tail, so a later-id data that never left now
  // precedes it.
  TaskGraphBuilder builder;
  const DataId d_present = builder.add_data(10);
  const DataId d_first = builder.add_data(10);   // earlier in initial order
  const DataId d_second = builder.add_data(10);
  const TaskId t_first_a = builder.add_task(1.0, {d_present, d_first});
  builder.add_task(1.0, {d_present, d_first});
  const TaskId t_second = builder.add_task(1.0, {d_present, d_second});
  const TaskGraph graph = builder.build();

  DartsScheduler darts{DartsOptions{.use_luf = true, .opti = true}};
  darts.prepare(graph, one_gpu_platform(), 3);
  StubMemory memory({d_present});

  // First pop: d_first enables two tasks and comes first -> t_first_a.
  EXPECT_EQ(darts.pop_task(0, memory), t_first_a);
  // Simulate the load then an eviction of d_first: it goes to the tail.
  darts.notify_data_loaded(0, d_first);
  darts.on_evict(0, d_first);
  darts.notify_data_evicted(0, d_first);
  // Now d_second precedes d_first in the scan: OPTI returns its task.
  EXPECT_EQ(darts.pop_task(0, memory), t_second);
}

// --- LUF eviction ---------------------------------------------------------

struct LufFixture {
  LufFixture() {
    TaskGraphBuilder builder;
    d_present = builder.add_data(10);
    d_new = builder.add_data(10);
    d_idle = builder.add_data(10);
    t0 = builder.add_task(1.0, {d_present, d_new});
    t1 = builder.add_task(1.0, {d_present, d_new});
    graph = builder.build();
    darts.prepare(graph, one_gpu_platform(), 1);
    // One pop: t0 buffered, t1 planned.
    StubMemory memory({d_present});
    popped = darts.pop_task(0, memory);
  }

  TaskGraph graph;
  DataId d_present{}, d_new{}, d_idle{};
  TaskId t0{}, t1{};
  DartsScheduler darts;
  TaskId popped{};
};

TEST(DartsLuf, EvictsDataUnusedByBufferAndPlans) {
  LufFixture fixture;
  ASSERT_EQ(fixture.popped, fixture.t0);
  const std::vector<DataId> candidates{fixture.d_present, fixture.d_new,
                                       fixture.d_idle};
  // d_idle: not used by taskBuffer (nb=0) nor plannedTasks (np=0).
  EXPECT_EQ(fixture.darts.choose_victim(0, candidates), fixture.d_idle);
}

TEST(DartsLuf, PrefersFewestPlannedUsesAmongUnbuffered) {
  LufFixture fixture;
  // d_new is used by planned t1 (np=1) but also by buffered t0 (nb=1), so
  // with candidates {d_new, d_idle} the idle one must win.
  const std::vector<DataId> candidates{fixture.d_new, fixture.d_idle};
  EXPECT_EQ(fixture.darts.choose_victim(0, candidates), fixture.d_idle);
}

TEST(DartsLuf, BeladyFallbackWhenAllCandidatesBuffered) {
  LufFixture fixture;
  // Both candidates are inputs of the buffered t0 (next use position 0):
  // the rule must still return one of them.
  const std::vector<DataId> candidates{fixture.d_present, fixture.d_new};
  const DataId victim = fixture.darts.choose_victim(0, candidates);
  EXPECT_TRUE(victim == fixture.d_present || victim == fixture.d_new);
}

TEST(DartsLuf, EvictionReturnsPlannedTasksToPool) {
  LufFixture fixture;
  ASSERT_EQ(fixture.darts.planned_tasks(0).size(), 1u);
  // Evicting d_new invalidates planned t1 (it reads d_new).
  fixture.darts.on_evict(0, fixture.d_new);
  fixture.darts.notify_data_evicted(0, fixture.d_new);
  EXPECT_TRUE(fixture.darts.planned_tasks(0).empty());
  // t1 is available again: with d_present and d_new resident it is re-planned.
  StubMemory memory({fixture.d_present, fixture.d_new});
  EXPECT_EQ(fixture.darts.pop_task(0, memory), fixture.t1);
}

TEST(DartsMultiGpu, TasksAreNeverIssuedTwiceAcrossGpus) {
  const TaskGraph graph = work::make_matmul_2d({.n = 4, .data_bytes = 10});
  Platform platform;
  platform.num_gpus = 3;
  DartsScheduler darts;
  darts.prepare(graph, platform, 13);
  StubMemory memory;

  std::vector<int> seen(graph.num_tasks(), 0);
  // Round-robin pops across GPUs until everyone reports empty.
  bool progress = true;
  while (progress) {
    progress = false;
    for (GpuId gpu = 0; gpu < 3; ++gpu) {
      const TaskId task = darts.pop_task(gpu, memory);
      if (task != kInvalidTask) {
        ++seen[task];
        darts.notify_task_complete(gpu, task);
        progress = true;
      }
    }
  }
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    EXPECT_EQ(seen[task], 1) << "task " << task;
  }
}

TEST(DartsMultiGpu, PerGpuScanListsAreIndependent) {
  // Loading data on gpu0 must not remove it from gpu1's scan list: gpu1 can
  // still select it as its own enabling data.
  TaskGraphBuilder builder;
  const DataId d_present = builder.add_data(10);
  const DataId d_enabler = builder.add_data(10);
  const TaskId t0 = builder.add_task(1.0, {d_present, d_enabler});
  const TaskId t1 = builder.add_task(1.0, {d_present, d_enabler});
  const TaskGraph graph = builder.build();

  Platform platform;
  platform.num_gpus = 2;
  DartsScheduler darts;
  darts.prepare(graph, platform, 3);

  StubMemory memory0({d_present});
  const TaskId first = darts.pop_task(0, memory0);
  EXPECT_EQ(first, t0);
  darts.notify_data_loaded(0, d_enabler);  // gpu0 got the data

  // gpu1's scan still contains d_enabler; with t1 planned on gpu0 though,
  // nothing is available for gpu1 until an eviction releases it.
  StubMemory memory1({d_present});
  EXPECT_EQ(darts.pop_task(1, memory1), kInvalidTask);

  // Evict on gpu0 (LUF path): t1 returns to the pool; gpu1 can take it.
  darts.on_evict(0, d_enabler);
  darts.notify_data_evicted(0, d_enabler);
  EXPECT_EQ(darts.pop_task(1, memory1), t1);
}

TEST(DartsMultiGpu, EvictionOnOneGpuDoesNotDisturbOthers) {
  const TaskGraph graph = work::make_matmul_2d({.n = 3, .data_bytes = 10});
  Platform platform;
  platform.num_gpus = 2;
  DartsScheduler darts;
  darts.prepare(graph, platform, 5);
  StubMemory memory({0});  // rowA_0

  const TaskId task0 = darts.pop_task(0, memory);
  ASSERT_NE(task0, kInvalidTask);
  // An eviction notification on gpu1 must not invalidate gpu0's plan.
  const auto planned_before = darts.planned_tasks(0).size();
  darts.notify_data_evicted(1, graph.inputs(task0)[1]);
  EXPECT_EQ(darts.planned_tasks(0).size(), planned_before);
}

TEST(DartsLuf, EvictionPolicyOnlyWiredWhenEnabled) {
  DartsScheduler with_luf{DartsOptions{.use_luf = true}};
  DartsScheduler without_luf{DartsOptions{.use_luf = false}};
  EXPECT_NE(with_luf.eviction_policy(0), nullptr);
  EXPECT_EQ(without_luf.eviction_policy(0), nullptr);
}

// --- Kept free counts --------------------------------------------------------
//
// The full scan reads n(D) from counts kept per GPU under a mirror of the
// residency each planning round saw. Random runs drive one DARTS through
// residency changes it is told of and changes it is not, pool changes and a
// GPU loss; after every planning round, every data's kept count on the
// planning GPU must equal n(D) by its definition.

enum class Pool { kBatch, kStreamed, kDependencies };

/// A random bipartite graph with 1-4 inputs per task; with dependencies,
/// each task also waits on up to two random earlier tasks.
TaskGraph random_case_graph(std::uint64_t seed, bool with_dependencies) {
  util::Rng rng(seed);
  const TaskGraph base = work::make_random_bipartite(
      {.num_tasks = 12 + static_cast<std::uint32_t>(rng.below(40)),
       .num_data = 4 + static_cast<std::uint32_t>(rng.below(14)),
       .min_inputs = 1,
       .max_inputs = 4,
       .data_bytes = 10,
       .seed = seed});
  if (!with_dependencies) return base;
  TaskGraphBuilder builder;
  for (DataId data = 0; data < base.num_data(); ++data) {
    builder.add_data(base.data_size(data));
  }
  for (TaskId task = 0; task < base.num_tasks(); ++task) {
    builder.add_task(base.task_flops(task), base.inputs(task));
    if (task == 0) continue;
    const auto first = static_cast<TaskId>(rng.below(task));
    const auto second = static_cast<TaskId>(rng.below(task));
    if (rng.chance(0.5)) builder.add_dependency(first, task);
    if (second != first && rng.chance(0.3)) {
      builder.add_dependency(second, task);
    }
  }
  return builder.build();
}

/// One random case; returns the number of planning rounds it audited.
std::uint32_t run_free_count_case(std::uint64_t seed, std::uint32_t gpus,
                                  Pool pool) {
  const TaskGraph graph = random_case_graph(seed, pool == Pool::kDependencies);
  util::Rng rng(seed * 31 + 7);
  DartsScheduler darts{
      DartsOptions{.use_luf = true, .three_inputs = rng.chance(0.3)}};
  if (pool == Pool::kStreamed) EXPECT_TRUE(darts.begin_streaming());
  if (pool == Pool::kDependencies) EXPECT_TRUE(darts.begin_dependencies());
  Platform platform;
  platform.num_gpus = gpus;
  darts.prepare(graph, platform, seed);

  const std::uint32_t num_tasks = graph.num_tasks();
  const std::uint32_t num_data = graph.num_data();
  std::vector<StubMemory> memory(gpus);
  std::vector<std::vector<TaskId>> running(gpus);
  std::vector<std::uint8_t> alive(gpus, 1);
  // In the pool unless taken, planned or not yet arrived/enabled.
  std::vector<std::uint8_t> joined(num_tasks, pool == Pool::kBatch ? 1 : 0);
  std::vector<std::uint8_t> taken(num_tasks, 0);
  std::vector<std::uint32_t> pending(num_tasks, 0);
  if (pool == Pool::kDependencies) {
    for (TaskId task = 0; task < num_tasks; ++task) {
      pending[task] = graph.num_predecessors(task);
      joined[task] = pending[task] == 0 ? 1 : 0;
    }
  }
  TaskId next_arrival = 0;
  std::uint32_t next_job = 0;

  auto available_tasks = [&] {
    std::vector<std::uint8_t> available(num_tasks, 0);
    for (TaskId task = 0; task < num_tasks; ++task) {
      available[task] = joined[task] != 0 && taken[task] == 0 ? 1 : 0;
    }
    for (GpuId gpu = 0; gpu < gpus; ++gpu) {
      for (TaskId task : darts.planned_tasks(gpu)) available[task] = 0;
    }
    return available;
  };
  auto audit = [&](GpuId gpu, int step) {
    const std::vector<std::uint8_t> available = available_tasks();
    for (DataId data = 0; data < num_data; ++data) {
      std::uint32_t expected = 0;
      for (TaskId task : graph.consumers(data)) {
        if (available[task] == 0) continue;
        bool rest_held = true;
        for (DataId input : graph.inputs(task)) {
          if (input != data && !memory[gpu].is_present_or_fetching(input)) {
            rest_held = false;
          }
        }
        if (rest_held) ++expected;
      }
      EXPECT_EQ(darts.free_count(gpu, data), expected)
          << "seed " << seed << ", step " << step << ", gpu " << gpu
          << ", data " << data;
    }
  };
  auto random_data = [&](auto&& pred) {
    std::vector<DataId> matches;
    for (DataId data = 0; data < num_data; ++data) {
      if (pred(data)) matches.push_back(data);
    }
    return matches.empty() ? kInvalidData : matches[rng.pick_index(matches)];
  };
  auto random_gpu = [&] {
    GpuId gpu = static_cast<GpuId>(rng.below(gpus));
    while (alive[gpu] == 0) gpu = (gpu + 1) % gpus;
    return gpu;
  };

  std::uint32_t rounds = 0;
  for (int step = 0; step < 200 && !testing::Test::HasFailure(); ++step) {
    const GpuId gpu = random_gpu();
    StubMemory& view = memory[gpu];
    const auto held = [&](DataId data) {
      return view.is_present_or_fetching(data);
    };
    switch (rng.below(10)) {
      case 0: {  // a fetch starts (schedulers are not told)
        const DataId data =
            random_data([&](DataId candidate) { return !held(candidate); });
        if (data != kInvalidData) view.set_fetching(data);
        break;
      }
      case 1: {  // a fetch lands
        const DataId data = random_data([&](DataId candidate) {
          return view.is_fetching(candidate);
        });
        if (data == kInvalidData) break;
        view.set_present(data);
        darts.on_load(gpu, data);
        darts.notify_data_loaded(gpu, data);
        break;
      }
      case 2: {  // an eviction, announced or (like a drain's wipe) not
        const DataId data = random_data(held);
        if (data == kInvalidData) break;
        view.drop(data);
        if (rng.chance(0.5)) {
          darts.on_evict(gpu, data);
          darts.notify_data_evicted(gpu, data);
        }
        break;
      }
      case 3:  // the whole GPU is wiped without a word
        if (rng.chance(0.2)) {
          view.clear();
        }
        break;
      case 4: {  // LUF evicts an input of a planned task
        const auto& planned = darts.planned_tasks(gpu);
        if (planned.empty()) break;
        const auto inputs = graph.inputs(planned[rng.pick_index(planned)]);
        const DataId data = inputs[rng.pick_index(inputs)];
        darts.on_evict(gpu, data);
        view.drop(data);
        darts.notify_data_evicted(gpu, data);
        break;
      }
      case 5: {  // a job arrives, or a running task retires
        if (pool == Pool::kStreamed && next_arrival < num_tasks &&
            rng.chance(0.5)) {
          const TaskId end = std::min<TaskId>(
              num_tasks, next_arrival + 1 + static_cast<TaskId>(rng.below(6)));
          std::vector<TaskId> tasks;
          for (; next_arrival < end; ++next_arrival) {
            joined[next_arrival] = 1;
            tasks.push_back(next_arrival);
          }
          darts.notify_job_arrived(next_job++, tasks);
          break;
        }
        if (running[gpu].empty()) break;
        const std::size_t index = rng.pick_index(running[gpu]);
        const TaskId task = running[gpu][index];
        running[gpu].erase(running[gpu].begin() +
                           static_cast<std::ptrdiff_t>(index));
        darts.notify_task_complete(gpu, task);
        if (pool == Pool::kDependencies) {
          std::vector<TaskId> enabled;
          for (TaskId succ : graph.successors(task)) {
            if (--pending[succ] == 0) {
              joined[succ] = 1;
              enabled.push_back(succ);
            }
          }
          darts.notify_task_retired(task, enabled);
        }
        break;
      }
      case 6:  // a GPU is lost: its running tasks are orphaned
        if (gpus > 1 && rng.chance(0.1) &&
            std::count(alive.begin(), alive.end(), 1) > 1) {
          for (TaskId task : running[gpu]) taken[task] = 0;
          EXPECT_TRUE(darts.notify_gpu_lost(gpu, running[gpu]));
          running[gpu].clear();
          alive[gpu] = 0;
        }
        break;
      default: {  // a pop, which may run a planning round
        const std::vector<std::uint8_t> available = available_tasks();
        const bool plans =
            darts.planned_tasks(gpu).empty() &&
            std::find(available.begin(), available.end(), 1) !=
                available.end();
        const TaskId task = darts.pop_task(gpu, view);
        if (task == kInvalidTask) break;
        taken[task] = 1;
        running[gpu].push_back(task);
        if (plans) {
          audit(gpu, step);
          ++rounds;
        }
        // The runtime starts fetching the task's absent inputs.
        for (DataId data : graph.inputs(task)) {
          if (!held(data) && rng.chance(0.7)) view.set_fetching(data);
        }
        break;
      }
    }
  }
  return rounds;
}

TEST(DartsFreeCounts, KeptCountsMatchTheDefinitionAfterEveryRound) {
  std::uint32_t cases = 0;
  std::uint32_t rounds = 0;
  for (std::uint64_t seed = 1; seed <= 108 && !HasFailure(); ++seed) {
    for (const Pool pool :
         {Pool::kBatch, Pool::kStreamed, Pool::kDependencies}) {
      const std::uint32_t gpus = std::uint32_t{1} << (seed % 3);
      rounds += run_free_count_case(seed, gpus, pool);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 324u);
  EXPECT_GT(rounds, 10u * cases);
}

// --- Decision pins ----------------------------------------------------------
//
// Whole runs whose recorded trace, load and eviction counts and makespan are
// pinned to constants: a change in which data a planning round picks, which
// tasks it plans, which random draw breaks a tie or which victim LUF evicts
// moves at least one of them. Rewrites of the free-task counting must keep
// every pin.

using test::Pin;
using test::pin_of;

Pin run_batch(const TaskGraph& graph, std::uint32_t gpus,
              std::uint64_t memory_mb, const DartsOptions& options,
              const sim::FaultPlan* plan = nullptr) {
  DartsScheduler darts(options);
  sim::RuntimeEngine engine(graph, make_v100_platform(gpus, memory_mb * kMB),
                            darts, {.seed = 7});
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  std::optional<sim::FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan);
    engine.set_fault_injector(&*injector);
  }
  const RunMetrics metrics = engine.run();
  if (plan != nullptr) {
    EXPECT_EQ(metrics.faults.gpu_losses, plan->gpu_losses.size());
  }
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  return pin_of(recorder.trace(), metrics);
}

Pin run_matmul2d_luf() {
  return run_batch(work::make_matmul_2d({.n = 60}), 4, 200, {});
}

Pin run_matmul2d_lru() {
  return run_batch(work::make_matmul_2d({.n = 60}), 4, 200,
                   {.use_luf = false});
}

Pin run_matmul2d_three_inputs() {
  return run_batch(work::make_matmul_2d({.n = 60}), 2, 150,
                   {.use_luf = true, .three_inputs = true});
}

Pin run_matmul3d() {
  return run_batch(work::make_matmul_3d({.n = 12}), 4, 200, {});
}

Pin run_cholesky_tasks() {
  return run_batch(work::make_cholesky_tasks({.n = 16}), 4, 100, {});
}

Pin run_cholesky_dag() {
  return run_batch(
      work::make_cholesky_tasks({.n = 16, .with_dependencies = true}), 4,
      100, {});
}

Pin run_random_bipartite() {
  return run_batch(work::make_random_bipartite({.num_tasks = 600,
                                                .num_data = 150,
                                                .min_inputs = 1,
                                                .max_inputs = 3,
                                                .seed = 5}),
                   2, 150, {});
}

Pin run_gpu_loss() {
  sim::FaultPlan plan;
  plan.gpu_losses.push_back({40'000.0, 1});
  return run_batch(work::make_matmul_2d({.n = 40}), 4, 200, {}, &plan);
}

Pin run_tiered_stream() {
  // Closed-loop arrivals (no exponential draws) of two templates whose jobs
  // carry priorities 0-2: the tier boost is live in every planning round.
  const std::vector<TaskGraph> templates = {
      work::make_matmul_2d({.n = 5}), work::make_matmul_2d({.n = 6})};
  std::vector<serve::JobSpec> jobs(24);
  for (std::uint32_t job = 0; job < jobs.size(); ++job) {
    jobs[job].graph = job % 2;
    jobs[job].priority = job % 3;
  }
  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 4;
  config.engine.seed = 7;
  DartsScheduler darts({.use_luf = true, .tier_boost = 2.0});
  serve::ServeEngine engine(templates, jobs, make_v100_platform(2, 100 * kMB),
                            darts, config);
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  const serve::ServeResult result = engine.run();
  EXPECT_EQ(result.serving.jobs_completed, jobs.size());
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  return pin_of(recorder.trace(), result.metrics);
}

Pin run_hierarchical() {
  // Two nodes of two GPUs: each node's DARTS+LUF sees its GPUs' memory
  // through the wrapper's id-translating view, and a drained node steals
  // from the other node's DARTS, which then plans for one of its own GPUs
  // against the thief's memory.
  const TaskGraph graph = work::make_cholesky_tasks({.n = 16});
  Platform platform = make_v100_platform(4, 100 * kMB);
  platform.num_nodes = 2;
  cluster::HierarchicalScheduler hierarchical(
      [] { return std::make_unique<DartsScheduler>(); });
  sim::RuntimeEngine engine(graph, platform, hierarchical, {.seed = 7});
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  const RunMetrics metrics = engine.run();
  EXPECT_GT(hierarchical.steal_count(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  return pin_of(recorder.trace(), metrics);
}

Pin run_poisson_stream() {
  // Open-loop arrivals: jobs land while the GPUs run, so tasks join the
  // shared pool between one GPU's planning rounds.
  const std::vector<TaskGraph> templates = {
      work::make_matmul_2d({.n = 5}), work::make_matmul_2d({.n = 6})};
  std::vector<serve::JobSpec> jobs(24);
  for (std::uint32_t job = 0; job < jobs.size(); ++job) {
    jobs[job].graph = job % 2;
  }
  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 60.0;
  config.arrival.seed = 3;
  config.engine.seed = 7;
  DartsScheduler darts;
  serve::ServeEngine engine(templates, jobs, make_v100_platform(2, 100 * kMB),
                            darts, config);
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

// Reference values: counting n(D) per data by its definition gives these
// runs, and the full scan's kept counts must reproduce them.
const PinCase kPinCases[] = {
    {"Matmul2dLuf", run_matmul2d_luf,
     {0x7dba49eb51f54af4ULL, 749, 693, 667117.0550064136}},
    {"Matmul2dLru", run_matmul2d_lru,
     {0xfaad0d745f97fe73ULL, 821, 765, 746448.70218063926}},
    {"Matmul2dThreeInputs", run_matmul2d_three_inputs,
     {0x35a1f4e4f55a8088ULL, 972, 952, 1058019.6944088042}},
    {"Matmul3d", run_matmul3d,
     {0x3f7a8bdd673cb6dbULL, 448, 392, 488184.13412264833}},
    {"CholeskyTasks", run_cholesky_tasks,
     {0xd24b583eb198c392ULL, 457, 349, 112281.31482683083}},
    {"CholeskyDag", run_cholesky_dag,
     {0xa686dc75107478d1ULL, 811, 703, 200086.89579717504}},
    {"RandomBipartite", run_random_bipartite,
     {0x7e8461343ca3b386ULL, 789, 769, 705333.98023089103}},
    {"GpuLoss", run_gpu_loss,
     {0xf80be78b92e9e568ULL, 330, 277, 335722.68241152837}},
    {"TieredStream", run_tiered_stream,
     {0x99f63e8d2350119bULL, 414, 400, 397216.79544254154}},
    {"HierarchicalDarts", run_hierarchical,
     {0xb3759084fb1faf36ULL, 505, 397, 76725.5962683166}},
    {"PoissonStream", run_poisson_stream,
     {0x948325bb2f8f8fdfULL, 427, 413, 446638.97615699453}},
};

// gtest prints the parameter into each test's listed name; print the case
// name so that name does not carry the address of the name string.
void PrintTo(const PinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

class DartsDecisionPin : public testing::TestWithParam<PinCase> {};

TEST_P(DartsDecisionPin, RunRepeatsExactly) {
  const PinCase& pin_case = GetParam();
  const Pin actual = pin_case.run();
  EXPECT_EQ(actual.trace_hash, pin_case.expected.trace_hash);
  EXPECT_EQ(actual.loads, pin_case.expected.loads);
  EXPECT_EQ(actual.evictions, pin_case.expected.evictions);
  EXPECT_DOUBLE_EQ(actual.makespan_us, pin_case.expected.makespan_us);
}

INSTANTIATE_TEST_SUITE_P(Runs, DartsDecisionPin, testing::ValuesIn(kPinCases),
                         [](const testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mg::core
