// End-to-end runs: every scheduler on every workload through the simulator,
// checked online against the execution model, with sanity bounds on the
// reported metrics.
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
#include "workloads/workloads.hpp"

namespace mg {
namespace {

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& kind) {
  if (kind == "eager") return std::make_unique<sched::EagerScheduler>();
  if (kind == "dmda") return std::make_unique<sched::DmdaScheduler>(false);
  if (kind == "dmdar") return std::make_unique<sched::DmdaScheduler>(true);
  if (kind == "hfp") return std::make_unique<sched::HfpScheduler>();
  if (kind == "hmetis") return std::make_unique<sched::HmetisScheduler>();
  if (kind == "darts") {
    return std::make_unique<core::DartsScheduler>(
        core::DartsOptions{.use_luf = false});
  }
  if (kind == "darts_luf") return std::make_unique<core::DartsScheduler>();
  if (kind == "darts_luf_3i") {
    return std::make_unique<core::DartsScheduler>(
        core::DartsOptions{.use_luf = true, .three_inputs = true});
  }
  if (kind == "darts_luf_opti") {
    return std::make_unique<core::DartsScheduler>(
        core::DartsOptions{.use_luf = true, .opti = true});
  }
  ADD_FAILURE() << "unknown scheduler " << kind;
  return nullptr;
}

core::TaskGraph make_workload(const std::string& kind) {
  if (kind == "matmul2d") {
    return work::make_matmul_2d({.n = 8, .data_bytes = 14 * core::kMB});
  }
  if (kind == "matmul2d_random") {
    return work::make_matmul_2d(
        {.n = 8, .data_bytes = 14 * core::kMB, .randomize_order = true,
         .seed = 5});
  }
  if (kind == "matmul3d") {
    return work::make_matmul_3d({.n = 4, .data_bytes = 14 * core::kMB});
  }
  if (kind == "cholesky") return work::make_cholesky_tasks({.n = 8});
  if (kind == "sparse") {
    return work::make_sparse_matmul(
        {.n = 24, .keep_fraction = 0.05, .seed = 2});
  }
  ADD_FAILURE() << "unknown workload " << kind;
  return work::make_matmul_2d({.n = 2});
}

struct Case {
  std::string scheduler;
  std::string workload;
  std::uint32_t gpus;
  std::uint64_t memory_mb;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return info.param.scheduler + "_" + info.param.workload + "_" +
         std::to_string(info.param.gpus) + "gpu_" +
         std::to_string(info.param.memory_mb) + "MB";
}

class IntegrationTest : public testing::TestWithParam<Case> {};

TEST_P(IntegrationTest, RunsToCompletionAndRespectsModel) {
  const Case& param = GetParam();
  const core::TaskGraph graph = make_workload(param.workload);
  core::Platform platform =
      core::make_v100_platform(param.gpus, param.memory_mb * core::kMB);

  auto scheduler = make_scheduler(param.scheduler);
  ASSERT_NE(scheduler, nullptr);

  sim::RuntimeEngine engine(graph, platform, *scheduler, {.seed = 99});
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();

  // All work done, split across GPUs.
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());

  // The run respects the execution model (residency, memory bound,
  // exactly-once).
  EXPECT_TRUE(checker.ok()) << checker.report().error;

  // Transferred volume can never beat the cold-start lower bound.
  EXPECT_GE(metrics.total_bytes_loaded(), analysis::bytes_lower_bound(graph));

  // Sanity on derived rates.
  EXPECT_GT(metrics.achieved_gflops(), 0.0);
  EXPECT_LE(metrics.achieved_gflops(), platform.peak_gflops() * 1.001);
}

constexpr const char* kSchedulers[] = {
    "eager", "dmda",      "dmdar",        "hfp",           "hmetis",
    "darts", "darts_luf", "darts_luf_3i", "darts_luf_opti"};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* scheduler : kSchedulers) {
    for (const char* workload :
         {"matmul2d", "matmul2d_random", "matmul3d", "cholesky", "sparse"}) {
      // Constrained and unconstrained memory, single and multi GPU.
      cases.push_back({scheduler, workload, 1, 120});
      cases.push_back({scheduler, workload, 2, 120});
      cases.push_back({scheduler, workload, 4, 500});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulersAllWorkloads, IntegrationTest,
                         testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace mg
