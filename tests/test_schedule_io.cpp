#include "analysis/schedule_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/offline_model.hpp"
#include "core/darts.hpp"
#include "sched/fixed_order.hpp"
#include "sim/engine.hpp"
#include "sim/run_report.hpp"
#include "workloads/matmul2d.hpp"

namespace mg::analysis {
namespace {

TEST(ScheduleIo, SaveLoadRoundTrip) {
  const Schedule schedule{{3, 1, 4, 1 + 14, 9, 2, 6},
                          {},
                          {5, 0, 8, 17, 16, 15, 14, 13, 12, 11, 10, 7, 18,
                           19, 20, 21, 22, 23}};
  const std::string path = testing::TempDir() + "/schedule.txt";
  ASSERT_TRUE(save_schedule(schedule, path));
  const auto loaded = load_schedule(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, schedule);
  std::remove(path.c_str());
}

TEST(ScheduleIo, RejectsWrongMagic) {
  const std::string path = testing::TempDir() + "/bad_schedule.txt";
  {
    std::ofstream out(path);
    out << "not-a-schedule\n";
  }
  EXPECT_FALSE(load_schedule(path).has_value());
  std::remove(path.c_str());
}

TEST(ScheduleIo, RejectsTruncatedFile) {
  const std::string path = testing::TempDir() + "/truncated_schedule.txt";
  {
    std::ofstream out(path);
    out << "memsched-schedule v1\ngpus 2\ngpu 0 5\n1 2 3\n";  // only 3 of 5
  }
  EXPECT_FALSE(load_schedule(path).has_value());
  std::remove(path.c_str());
}

TEST(ScheduleIo, MissingFileYieldsNullopt) {
  EXPECT_FALSE(load_schedule("/nonexistent/schedule.txt").has_value());
}

TEST(ScheduleIo, MatchesGraphValidation) {
  const core::TaskGraph graph = work::make_matmul_2d({.n = 2, .data_bytes = 10});
  EXPECT_TRUE(schedule_matches_graph({{0, 1}, {2, 3}}, graph));
  EXPECT_FALSE(schedule_matches_graph({{0, 1}, {2}}, graph));       // missing
  EXPECT_FALSE(schedule_matches_graph({{0, 1, 1}, {2, 3}}, graph)); // dup
  EXPECT_FALSE(schedule_matches_graph({{0, 1}, {2, 9}}, graph));    // unknown
}

TEST(ScheduleIo, ArchivedDartsScheduleReplaysIdentically) {
  // Record a DARTS run, archive its realized order, reload and replay it:
  // the replay must transfer no more than the archived run (same order, and
  // the replay's fixed order avoids DARTS's decision randomness).
  const core::TaskGraph graph =
      work::make_matmul_2d({.n = 8, .data_bytes = 14 * core::kMB});
  const core::Platform platform = core::make_v100_platform(2, 120 * core::kMB);

  core::DartsScheduler darts;
  sim::RuntimeEngine original(graph, platform, darts);
  sim::RunReportCollector recorder;
  original.add_inspector(&recorder);
  const core::RunMetrics original_metrics = original.run();

  Schedule schedule;
  for (core::GpuId gpu = 0; gpu < platform.num_gpus; ++gpu) {
    schedule.push_back(recorder.trace().execution_order(gpu));
  }
  ASSERT_TRUE(schedule_matches_graph(schedule, graph));

  const std::string path = testing::TempDir() + "/darts_schedule.txt";
  ASSERT_TRUE(save_schedule(schedule, path));
  const auto loaded = load_schedule(path);
  ASSERT_TRUE(loaded.has_value());

  // Replay under Belady eviction — the offline-optimal analogue of LUF for
  // a fixed order (abl_eviction shows LUF matching it on this workload).
  sched::FixedOrderScheduler replay(
      *loaded, sched::FixedOrderScheduler::Eviction::kBelady);
  sim::RuntimeEngine engine(graph, platform, replay);
  const core::RunMetrics replay_metrics = engine.run();
  EXPECT_EQ(replay_metrics.per_gpu[0].tasks_executed,
            schedule[0].size());
  // Same order, near-equivalent eviction: byte counts in the same ballpark
  // (pipeline/pop timing differs slightly around boundaries).
  EXPECT_NEAR(static_cast<double>(replay_metrics.total_bytes_loaded()),
              static_cast<double>(original_metrics.total_bytes_loaded()),
              0.2 * static_cast<double>(original_metrics.total_bytes_loaded()));
  std::remove(path.c_str());
}

TEST(LiveFootprint, PeakOverlapOfUseIntervals) {
  core::TaskGraphBuilder builder;
  const core::DataId d0 = builder.add_data(10);
  const core::DataId d1 = builder.add_data(20);
  const core::DataId d2 = builder.add_data(30);
  builder.add_task(1.0, {d0});        // pos 0: d0 live
  builder.add_task(1.0, {d0, d1});    // pos 1: d0+d1 = 30
  builder.add_task(1.0, {d1, d2});    // pos 2: d1+d2 = 50
  builder.add_task(1.0, {d2});        // pos 3: d2
  const core::TaskGraph graph = builder.build();

  EXPECT_EQ(max_live_footprint(graph, {0, 1, 2, 3}), 50u);
  // Reordering can change the peak: putting the d2 tasks first keeps d0/d1
  // and d2 lifetimes disjoint except at the d1/d2 joint.
  EXPECT_EQ(max_live_footprint(graph, {3, 2, 1, 0}), 50u);
}

TEST(LiveFootprint, RowMajorMatmulNeedsOneRowPlusAllColumns) {
  const std::uint32_t n = 6;
  const core::TaskGraph graph = work::make_matmul_2d({.n = n, .data_bytes = 10});
  std::vector<core::TaskId> order(graph.num_tasks());
  for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
    order[task] = task;  // row-major
  }
  // Columns stay live across the whole run; rows one at a time — except at
  // row boundaries where two rows overlap... rows don't overlap (row i's
  // last use is before row i+1's first use): peak = N columns + 1 row.
  EXPECT_EQ(max_live_footprint(graph, order), (n + 1) * 10);
}

TEST(LiveFootprint, BeladyNeedsNoReloadAtTheFootprint) {
  const core::TaskGraph graph = work::make_matmul_2d({.n = 5, .data_bytes = 10});
  std::vector<core::TaskId> order(graph.num_tasks());
  for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
    order[task] = task;
  }
  const std::uint64_t footprint = max_live_footprint(graph, order);
  const auto at = replay_schedule(graph, {order}, footprint,
                                  ReplayEviction::kBelady);
  EXPECT_EQ(at.total_loads, loads_lower_bound(graph));
  const auto below = replay_schedule(graph, {order}, footprint - 10,
                                     ReplayEviction::kBelady);
  EXPECT_GT(below.total_loads, loads_lower_bound(graph));
}

}  // namespace
}  // namespace mg::analysis
