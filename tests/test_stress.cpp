// Combined-feature stress sweep: every scheduler family crossed with
// NVLink, output write-backs, randomized irregular workloads and tight
// memory, every run checked online against the execution model. This is the "does the whole machine
// hold together" net under the feature matrix.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/offline_model.hpp"
#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"
#include "sim/engine.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "workloads/workloads.hpp"

namespace mg {
namespace {

struct StressCase {
  std::string scheduler;
  std::uint64_t workload_seed;
  bool nvlink;
  bool outputs;
  std::uint32_t gpus;
  std::uint32_t pipeline_depth;
};

std::string stress_name(const testing::TestParamInfo<StressCase>& info) {
  const StressCase& c = info.param;
  return c.scheduler + "_s" + std::to_string(c.workload_seed) +
         (c.nvlink ? "_nvlink" : "") + (c.outputs ? "_outputs" : "") + "_" +
         std::to_string(c.gpus) + "gpu_d" + std::to_string(c.pipeline_depth);
}

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& kind) {
  if (kind == "eager") return std::make_unique<sched::EagerScheduler>();
  if (kind == "dmdar") return std::make_unique<sched::DmdaScheduler>();
  if (kind == "hfp") return std::make_unique<sched::HfpScheduler>();
  if (kind == "hmetis") return std::make_unique<sched::HmetisScheduler>();
  if (kind == "darts_luf") return std::make_unique<core::DartsScheduler>();
  ADD_FAILURE() << "unknown scheduler " << kind;
  return nullptr;
}

class StressTest : public testing::TestWithParam<StressCase> {};

TEST_P(StressTest, IrregularWorkloadUnderPressure) {
  const StressCase& param = GetParam();

  // Irregular random bipartite workload; tight memory relative to the
  // working set and to the pipeline footprint.
  core::TaskGraphBuilder builder;
  const core::TaskGraph base = work::make_random_bipartite(
      {.num_tasks = 150, .num_data = 40, .min_inputs = 1, .max_inputs = 3,
       .data_bytes = 10 * core::kMB, .task_flops = 5e9,
       .seed = param.workload_seed});
  // Rebuild with outputs when requested (generator has no output knob).
  core::TaskGraph graph = [&]() -> core::TaskGraph {
    if (!param.outputs) return base;
    core::TaskGraphBuilder with_outputs;
    for (core::DataId data = 0; data < base.num_data(); ++data) {
      with_outputs.add_data(base.data_size(data));
    }
    for (core::TaskId task = 0; task < base.num_tasks(); ++task) {
      const auto inputs = base.inputs(task);
      const core::TaskId copy = with_outputs.add_task(
          base.task_flops(task),
          std::span<const core::DataId>(inputs.data(), inputs.size()));
      with_outputs.set_task_output(copy, 4 * core::kMB);
    }
    return with_outputs.build();
  }();

  core::Platform platform =
      core::make_v100_platform(param.gpus, 80 * core::kMB);
  platform.nvlink_enabled = param.nvlink;

  auto scheduler = make_scheduler(param.scheduler);
  ASSERT_NE(scheduler, nullptr);

  sim::EngineConfig config;
  config.pipeline_depth = param.pipeline_depth;
  config.seed = param.workload_seed * 7 + 1;
  sim::RuntimeEngine engine(graph, platform, *scheduler, config);
  sim::InvariantChecker checker({.fail_fast = false});
  sim::RunReportCollector collector({.collect_trace = false});
  engine.add_inspector(&checker);
  engine.add_inspector(&collector);
  const core::RunMetrics metrics = engine.run();

  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());

  EXPECT_TRUE(checker.ok()) << checker.report().error;
  // The report's committed-bytes peak replays the same stream: a scratch
  // release published after the stalled fetch it restarted would push it
  // past M.
  for (const auto& gpu : collector.report().per_gpu) {
    EXPECT_LE(gpu.peak_committed_bytes, platform.gpu_memory_bytes);
  }

  // Every byte any GPU received came over some channel, and the used data
  // reached at least one GPU.
  EXPECT_GE(metrics.total_bytes_loaded() + metrics.total_bytes_from_peers(),
            analysis::bytes_lower_bound(graph));
  if (!param.nvlink) EXPECT_EQ(metrics.total_bytes_from_peers(), 0u);
  if (param.outputs) {
    EXPECT_GT(metrics.total_bytes_written_back(), 0u);
  } else {
    EXPECT_EQ(metrics.total_bytes_written_back(), 0u);
  }
}

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> cases;
  const char* schedulers[] = {"eager", "dmdar", "hfp", "hmetis",
                              "darts_luf"};
  int rotation = 0;
  for (const char* scheduler : schedulers) {
    for (std::uint64_t seed : {11ull, 77ull}) {
      // Rotate the feature combinations rather than the full cross product
      // to keep the suite fast while covering every pairing per scheduler.
      const bool nvlink = (rotation % 2) == 0;
      const bool outputs = (rotation % 3) != 0;
      cases.push_back({scheduler, seed, nvlink, outputs,
                       nvlink ? 4u : 2u,
                       (rotation % 2) == 0 ? 4u : 1u});
      cases.push_back({scheduler, seed, !nvlink, !outputs, 3u, 2u});
      ++rotation;
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(FeatureMatrix, StressTest,
                         testing::ValuesIn(stress_cases()), stress_name);

}  // namespace
}  // namespace mg
