// Paper-claim tests: the qualitative results of the source paper's figures,
// asserted on the simulator so the reproduction cannot drift without a test
// failing. Each run uses the figure's platform and the figure harness's seed,
// with scheduler cost accounting off (the orderings below are about the
// schedules, not the decision time).
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "core/darts.hpp"
#include "core/platform.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hmetis_r.hpp"
#include "sim/engine.hpp"
#include "workloads/matmul2d.hpp"
#include "workloads/matmul3d.hpp"

namespace mg {
namespace {

struct Outcome {
  double gflops = 0.0;
  double transfers_mb = 0.0;
};

/// The machine of Figs. 8 and 10: 4 V100s with 500 MB each, seed 42.
Outcome run_point(const core::TaskGraph& graph, core::Scheduler& scheduler) {
  sim::RuntimeEngine engine(graph, core::make_v100_platform(4, 500 * core::kMB),
                            scheduler, {.seed = 42});
  const core::RunMetrics metrics = engine.run();
  EXPECT_GE(metrics.total_loads(), analysis::min_loads_lower_bound(graph))
      << scheduler.name() << " on " << graph.num_tasks() << " tasks";
  return {metrics.achieved_gflops(), metrics.transfers_mb()};
}

Outcome run_fig8_point(std::uint32_t n, core::Scheduler& scheduler) {
  return run_point(work::make_matmul_2d({.n = n}), scheduler);
}

struct Fig8Point {
  Outcome darts_luf;
  Outcome dmdar;
  Outcome eager;
};

Fig8Point run_fig8(std::uint32_t n) {
  core::DartsScheduler darts({.use_luf = true});
  sched::DmdaScheduler dmdar;
  sched::EagerScheduler eager;
  return {run_fig8_point(n, darts), run_fig8_point(n, dmdar),
          run_fig8_point(n, eager)};
}

TEST(PaperFig8, DartsLufLeadsOnceDmdarCollapses) {
  // N=142 (ws 3,976 MB, ~2x the aggregate memory): DMDAR's prefetches fight
  // its own evictions; DARTS+LUF keeps the highest throughput with the
  // fewest host transfers.
  const Fig8Point point = run_fig8(142);
  EXPECT_GT(point.darts_luf.gflops, point.dmdar.gflops);
  EXPECT_GT(point.dmdar.gflops, point.eager.gflops);
  EXPECT_LT(point.darts_luf.transfers_mb, point.dmdar.transfers_mb);
  EXPECT_LT(point.dmdar.transfers_mb, point.eager.transfers_mb);
}

TEST(PaperFig8, DartsLufMatchesDmdarBeforeTheCollapse) {
  // N=100 (ws 2,800 MB): DARTS+LUF at least matches DMDAR and both far
  // outrun EAGER. DMDAR still moves fewer bytes here (7,000 vs 10,822 MB),
  // so no transfer ordering is claimed at this point.
  const Fig8Point point = run_fig8(100);
  EXPECT_GE(point.darts_luf.gflops, point.dmdar.gflops);
  EXPECT_GT(point.dmdar.gflops, point.eager.gflops);
}

struct Fig10Point {
  double working_set_mb = 0.0;
  Outcome three_inputs;
  Outcome darts_luf;
  Outcome hmetis;
  Outcome dmdar;
  Outcome eager;
};

Fig10Point run_fig10(std::uint32_t n) {
  const core::TaskGraph graph = work::make_matmul_3d({.n = n});
  core::DartsScheduler three_inputs({.use_luf = true, .three_inputs = true});
  core::DartsScheduler darts({.use_luf = true});
  sched::HmetisScheduler hmetis;
  sched::DmdaScheduler dmdar;
  sched::EagerScheduler eager;
  return {static_cast<double>(analysis::min_load_bytes_lower_bound(graph)) /
              1e6,
          run_point(graph, three_inputs),
          run_point(graph, darts),
          run_point(graph, hmetis),
          run_point(graph, dmdar),
          run_point(graph, eager)};
}

// hMETIS+R runs without cost accounting, so its place in both orderings
// pins the partition's quality against the dynamic schedulers.
TEST(PaperFig10, ThreeInputsLeadsAtTwiceTheAggregateMemory) {
  // N=12 (ws 4,032 MB): 3inputs 48,740 > DARTS+LUF 47,130 > hMETIS+R
  // 43,430 > DMDAR 33,375 > EAGER 11,029 GFlop/s. 3inputs loads every data
  // exactly once; DARTS+LUF moves 5,278 MB.
  const Fig10Point point = run_fig10(12);
  EXPECT_GT(point.three_inputs.gflops, point.darts_luf.gflops);
  EXPECT_GT(point.darts_luf.gflops, point.hmetis.gflops);
  EXPECT_GT(point.hmetis.gflops, point.dmdar.gflops);
  EXPECT_GT(point.dmdar.gflops, point.eager.gflops);
  EXPECT_DOUBLE_EQ(point.three_inputs.transfers_mb, point.working_set_mb);
  EXPECT_LT(point.three_inputs.transfers_mb, point.darts_luf.transfers_mb);
}

TEST(PaperFig10, DartsLufLeadsAtTheLastDefaultPoint) {
  // N=16 (ws 7,168 MB): DARTS+LUF 51,125 > 3inputs 50,658 > hMETIS+R
  // 45,883 > DMDAR 39,685 > EAGER 13,844 GFlop/s. 3inputs still loads every
  // data exactly once, against 8,610 MB for DARTS+LUF.
  const Fig10Point point = run_fig10(16);
  EXPECT_GT(point.darts_luf.gflops, point.three_inputs.gflops);
  EXPECT_GT(point.three_inputs.gflops, point.hmetis.gflops);
  EXPECT_GT(point.hmetis.gflops, point.dmdar.gflops);
  EXPECT_GT(point.dmdar.gflops, point.eager.gflops);
  EXPECT_DOUBLE_EQ(point.three_inputs.transfers_mb, point.working_set_mb);
  EXPECT_LT(point.three_inputs.transfers_mb, point.darts_luf.transfers_mb);
}

}  // namespace
}  // namespace mg
