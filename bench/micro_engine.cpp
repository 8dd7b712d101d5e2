// Microbenchmark: end-to-end simulator throughput (simulated tasks per
// wall second) and per-scheduler decision cost, via full engine runs; the
// set-up cost of the Cholesky N=100 tile DAG (cholesky_dag's graph),
// where building the dependency edges weighs as much as simulating it;
// the set-up cost of serve_cluster's union graph (BM_BuildUnionGraph,
// 20,000 jobs of the N=8 matmul template); and the event queue alone, one
// schedule plus one run per iteration.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "serve/union_graph.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"

namespace {

using namespace mg;

enum class Kind { kEager, kDmdar, kDarts, kDartsOpti };

std::unique_ptr<core::Scheduler> make(Kind kind) {
  switch (kind) {
    case Kind::kEager:
      return std::make_unique<sched::EagerScheduler>();
    case Kind::kDmdar:
      return std::make_unique<sched::DmdaScheduler>();
    case Kind::kDarts:
      return std::make_unique<core::DartsScheduler>();
    case Kind::kDartsOpti:
      return std::make_unique<core::DartsScheduler>(
          core::DartsOptions{.use_luf = true, .opti = true});
  }
  return nullptr;
}

void BM_EngineRun(benchmark::State& state) {
  const auto kind = static_cast<Kind>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const core::TaskGraph graph = work::make_matmul_2d({.n = n});
  const core::Platform platform = core::make_v100_platform(2);

  double pop_us = 0.0;
  for (auto _ : state) {
    auto scheduler = make(kind);
    sim::RuntimeEngine engine(graph, platform, *scheduler);
    const core::RunMetrics metrics = engine.run();
    benchmark::DoNotOptimize(metrics.makespan_us);
    pop_us = metrics.scheduler_pop_us;
  }
  state.SetItemsProcessed(state.iterations() * graph.num_tasks());
  state.counters["sched_pop_ms"] = pop_us / 1e3;
}
BENCHMARK(BM_EngineRun)
    ->Args({static_cast<long>(Kind::kEager), 32})
    ->Args({static_cast<long>(Kind::kDmdar), 32})
    ->Args({static_cast<long>(Kind::kDarts), 32})
    ->Args({static_cast<long>(Kind::kDartsOpti), 32})
    ->Args({static_cast<long>(Kind::kDarts), 64})
    ->Args({static_cast<long>(Kind::kDartsOpti), 64})
    ->Unit(benchmark::kMillisecond);

// Generates and builds the 171,700-task Cholesky N=100 graph; the arg picks
// with (1) or without (0) dependencies, so the run without them is the
// control and the difference is the dependency build.
void BM_BuildCholeskyDag(benchmark::State& state) {
  const bool with_dependencies = state.range(0) != 0;
  std::uint64_t dep_edges = 0;
  for (auto _ : state) {
    const core::TaskGraph graph = work::make_cholesky_tasks(
        {.n = 100, .with_dependencies = with_dependencies});
    dep_edges = graph.dependency_edge_counts().total;
    benchmark::DoNotOptimize(dep_edges);
  }
  state.counters["dep_edges"] = static_cast<double>(dep_edges);
}
BENCHMARK(BM_BuildCholeskyDag)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Builds serve_cluster's union graph: 20,000 jobs of the N=8 matmul template
// sharing its 16 data, 1.28M tasks reading 2.56M inputs.
void BM_BuildUnionGraph(benchmark::State& state) {
  const std::vector<core::TaskGraph> templates = {
      work::make_matmul_2d({.n = 8})};
  std::vector<serve::JobSpec> jobs(20000);
  for (std::uint32_t job = 0; job < jobs.size(); ++job) {
    jobs[job].priority = job % 2;
  }
  std::uint32_t tasks = 0;
  for (auto _ : state) {
    const serve::UnionGraph union_graph =
        serve::build_union_graph(templates, jobs);
    tasks = union_graph.graph.num_tasks();
    benchmark::DoNotOptimize(tasks);
  }
  std::uint64_t template_inputs = 0;
  for (core::TaskId task = 0; task < templates[0].num_tasks(); ++task) {
    template_inputs += templates[0].inputs(task).size();
  }
  state.counters["tasks"] = static_cast<double>(tasks);
  state.counters["inputs"] =
      static_cast<double>(template_inputs * jobs.size());
}
BENCHMARK(BM_BuildUnionGraph)->Unit(benchmark::kMillisecond);

// Schedules one event and runs the earliest per iteration, with the arg's
// count of events standing in the queue (64: a small engine; 20,000: a
// streamed run's depth). Delays fall on an integer grid, so keys tie on
// time; callbacks carry a pointer and two ids, like the engine's.
void BM_EventQueueChurn(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  util::Rng rng(1);
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  auto schedule = [&](std::uint32_t id) {
    const auto delay = static_cast<double>(rng.below(1000));
    queue.schedule_after(delay, [&fired, id, depth] { fired += id + depth; });
  };
  for (std::uint32_t id = 0; id < depth; ++id) schedule(id);
  std::uint32_t id = 0;
  for (auto _ : state) {
    schedule(id++);
    queue.run_one();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(20000);

}  // namespace
