// Figure 3: performance (GFlop/s) of EAGER, DMDAR, DARTS, DARTS+LUF and
// mHFP (with and without scheduling time) on the 2D matrix multiplication
// with a single 500 MB Tesla V100, working sets 140..2000 MB.
#include "common/figure_harness.hpp"
#include "matmul_points.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 3: 2D matmul, 1 GPU, GFlop/s vs working set");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig03", "2D matmul on 1 V100, performance");
  const bool full = flags.get_bool("full");
  const auto points =
      bench::matmul2d_points(bench::matmul2d_ns(2000.0, full));

  // The paper shows mHFP only on a few modest working sets (its packing
  // time dominates beyond ~1300 MB); mirror that cap.
  const double mhfp_cap = full ? 1400.0 : 1200.0;
  bench::run_figure(config, points,
                    {bench::eager_spec(),
                     bench::dmdar_spec(),
                     bench::darts_spec({.use_luf = false}),
                     bench::darts_spec({.use_luf = true}),
                     bench::mhfp_spec(/*with_sched_time=*/true, mhfp_cap),
                     bench::mhfp_spec(/*with_sched_time=*/false, mhfp_cap)});
  return 0;
}
