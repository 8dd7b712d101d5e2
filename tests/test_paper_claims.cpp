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
#include "sim/engine.hpp"
#include "workloads/matmul2d.hpp"

namespace mg {
namespace {

struct Outcome {
  double gflops = 0.0;
  double transfers_mb = 0.0;
};

/// Fig. 8's machine: 4 V100s with 500 MB each, seed 42.
Outcome run_fig8_point(std::uint32_t n, core::Scheduler& scheduler) {
  const core::TaskGraph graph = work::make_matmul_2d({.n = n});
  sim::RuntimeEngine engine(graph, core::make_v100_platform(4, 500 * core::kMB),
                            scheduler, {.seed = 42});
  const core::RunMetrics metrics = engine.run();
  EXPECT_GE(metrics.total_loads(), analysis::min_loads_lower_bound(graph))
      << scheduler.name() << " at N=" << n;
  return {metrics.achieved_gflops(), metrics.transfers_mb()};
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

}  // namespace
}  // namespace mg
