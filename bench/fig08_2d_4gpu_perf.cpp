// Figure 8: performance on the 2D matmul with 4 V100s, adding the
// DARTS+LUF+threshold variant that caps the data scan to contain DARTS's
// decision time on large task sets.
#include "common/figure_harness.hpp"
#include "matmul_points.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 8: 2D matmul, 4 GPUs, with scheduler cost");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/4);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig08", "2D matmul on 4 V100s, performance");
  const bool full = flags.get_bool("full");
  const double max_ws = full ? 8000.0 : 4000.0;
  const auto points =
      bench::matmul2d_points(bench::matmul2d_ns(max_ws, full));

  // The paper enables the scan threshold only beyond 3500 MB working sets.
  bench::SchedulerSpec threshold =
      bench::darts_spec({.use_luf = true, .scan_threshold = 50},
                        /*with_sched_time=*/true);
  threshold.min_working_set_mb = 3500.0;

  bench::run_figure(
      config, points,
      {bench::eager_spec(),
       bench::dmdar_spec(),
       bench::darts_spec({.use_luf = false}, /*with_sched_time=*/true),
       bench::darts_spec({.use_luf = true}, /*with_sched_time=*/true),
       threshold,
       bench::hmetis_spec(/*with_partition_time=*/true),
       bench::hmetis_spec(/*with_partition_time=*/false)});
  return 0;
}
