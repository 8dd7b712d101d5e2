// Figure 5: performance on the 2D matmul with 2 V100s in *simulation* —
// scheduler cost is not charged (the paper runs StarPU over SimGrid here),
// which is what lets mHFP and hMETIS+R show their schedule quality.
#include "common/figure_harness.hpp"
#include "matmul_points.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 5: 2D matmul, 2 GPUs, simulation (no sched cost)");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/2);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig05", "2D matmul on 2 V100s, simulation, performance");
  const bool full = flags.get_bool("full");
  const double max_ws = full ? 4000.0 : 2800.0;
  const auto points =
      bench::matmul2d_points(bench::matmul2d_ns(max_ws, full));

  const double mhfp_cap = full ? 2300.0 : 1700.0;
  bench::run_figure(config, points,
                    {bench::eager_spec(),
                     bench::dmdar_spec(),
                     bench::darts_spec({.use_luf = false}),
                     bench::darts_spec({.use_luf = true}),
                     bench::mhfp_spec(/*with_sched_time=*/false, mhfp_cap),
                     bench::hmetis_spec(/*with_partition_time=*/false)});
  return 0;
}
