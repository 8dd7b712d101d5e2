#include "analysis/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/darts.hpp"
#include "sim/engine.hpp"
#include "sim/run_report.hpp"
#include "util/thread_pool.hpp"
#include "workloads/matmul2d.hpp"

namespace mg::analysis {
namespace {

struct RunResult {
  core::TaskGraph graph;
  core::Platform platform;
  sim::Trace trace;
};

RunResult run_small() {
  RunResult result{work::make_matmul_2d({.n = 4, .data_bytes = 10}),
                   core::Platform{}, {}};
  result.platform.num_gpus = 2;
  result.platform.gpu_memory_bytes = 100;
  result.platform.gpu_gflops = 1e-3;
  result.platform.bus_bandwidth_bytes_per_s = 1e6;
  result.platform.bus_latency_us = 0.0;
  core::DartsScheduler darts;
  sim::RuntimeEngine engine(result.graph, result.platform, darts);
  sim::RunReportCollector collector;
  engine.add_inspector(&collector);
  (void)engine.run();
  result.trace = collector.trace();
  return result;
}

TEST(ChromeTraceExport, ProducesParseableishJson) {
  const RunResult result = run_small();
  const std::string path = testing::TempDir() + "/trace.json";
  ASSERT_TRUE(export_chrome_trace(result.graph, result.platform, result.trace,
                                  path));

  std::ifstream input(path);
  ASSERT_TRUE(input.good());
  std::stringstream buffer;
  buffer << input.rdbuf();
  const std::string json = buffer.str();

  // Structural smoke checks: header, balanced braces, one complete-event
  // ("ph":"X") per task, thread-name metadata per GPU.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  std::size_t slices = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++slices;
  }
  EXPECT_EQ(slices, result.graph.num_tasks());
  EXPECT_NE(json.find("GPU 0"), std::string::npos);
  EXPECT_NE(json.find("GPU 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ChromeTraceExport, FailsCleanlyOnBadPath) {
  const RunResult result = run_small();
  EXPECT_FALSE(export_chrome_trace(result.graph, result.platform,
                                   result.trace, "/nonexistent/dir/t.json"));
}

TEST(ReuseStats, CountsLoadsAndReloads) {
  sim::Trace trace;
  trace.events = {
      {1.0, sim::TraceKind::kLoad, 0, 0},
      {2.0, sim::TraceKind::kLoad, 0, 1},
      {3.0, sim::TraceKind::kEvict, 0, 0},
      {4.0, sim::TraceKind::kLoad, 0, 0},      // reload of d0 on gpu0
      {5.0, sim::TraceKind::kPeerLoad, 1, 0},  // d0 on gpu1 via NVLink
  };
  core::TaskGraphBuilder builder;
  const auto d0 = builder.add_data(10);
  const auto d1 = builder.add_data(10);
  builder.add_task(1.0, {d0, d1});
  const core::TaskGraph graph = builder.build();
  core::Platform platform;
  platform.num_gpus = 2;

  const ReuseStats stats = compute_reuse_stats(graph, platform, trace);
  EXPECT_EQ(stats.total_loads, 4u);
  EXPECT_EQ(stats.distinct_data, 2u);
  EXPECT_EQ(stats.reloads, 1u);  // (gpu0, d0) loaded twice
  EXPECT_EQ(stats.max_loads_one_data, 3u);  // d0 across both gpus
  EXPECT_EQ(stats.most_reloaded, d0);
  ASSERT_EQ(stats.histogram.size(), 2u);
  EXPECT_EQ(stats.histogram[0], 2u);  // (gpu0,d1), (gpu1,d0) loaded once
  EXPECT_EQ(stats.histogram[1], 1u);  // (gpu0,d0) loaded twice
}

TEST(ReuseStats, PerfectReuseHasNoReloads) {
  const RunResult result = run_small();  // roomy memory: no evictions
  const ReuseStats stats =
      compute_reuse_stats(result.graph, result.platform, result.trace);
  EXPECT_EQ(stats.reloads, 0u);
  EXPECT_GE(stats.distinct_data, 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(100);
  pool.parallel_for(100, [&counts](std::size_t i) {
    counts[i].fetch_add(1);
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  util::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ParallelSimulationsAreIndependent) {
  // Run the same deterministic simulation on several threads; results must
  // match the sequential run (engines share no mutable state).
  const core::TaskGraph graph = work::make_matmul_2d({.n = 8, .data_bytes = 10});
  core::Platform platform;
  platform.num_gpus = 2;
  platform.gpu_memory_bytes = 200;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;

  auto run_once = [&] {
    core::DartsScheduler darts;
    sim::RuntimeEngine engine(graph, platform, darts, {.seed = 7});
    return engine.run().total_bytes_loaded();
  };
  const std::uint64_t expected = run_once();

  std::vector<std::uint64_t> results(8, 0);
  util::ThreadPool pool(4);
  pool.parallel_for(results.size(), [&](std::size_t i) {
    results[i] = run_once();
  });
  for (std::uint64_t value : results) EXPECT_EQ(value, expected);
}

}  // namespace
}  // namespace mg::analysis
