// Figure 6: performance on the 2D matmul with 2 V100s in "real" conditions:
// measured scheduler decision/partitioning time is charged to the timeline.
// mHFP is dropped (prohibitive packing time, as in the paper); hMETIS+R
// appears with and without its partitioning time.
#include "common/figure_harness.hpp"
#include "matmul_points.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 6: 2D matmul, 2 GPUs, with scheduler cost");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/2);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig06", "2D matmul on 2 V100s, real, performance");
  const bool full = flags.get_bool("full");
  const double max_ws = full ? 4000.0 : 2800.0;
  const auto points =
      bench::matmul2d_points(bench::matmul2d_ns(max_ws, full));

  bench::run_figure(
      config, points,
      {bench::eager_spec(),
       bench::dmdar_spec(),
       bench::darts_spec({.use_luf = false}, /*with_sched_time=*/true),
       bench::darts_spec({.use_luf = true}, /*with_sched_time=*/true),
       bench::hmetis_spec(/*with_partition_time=*/true),
       bench::hmetis_spec(/*with_partition_time=*/false)});
  return 0;
}
