// Figure 7: data transfers (MB) for the 2-GPU 2D matmul of Figure 6, with
// the PCI-limit reference in the per-point comments.
#include "common/figure_harness.hpp"
#include "matmul_points.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 7: 2D matmul, 2 GPUs, transfers");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/2);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig07", "2D matmul on 2 V100s, data transfers");
  const bool full = flags.get_bool("full");
  const double max_ws = full ? 4000.0 : 2800.0;
  const auto points =
      bench::matmul2d_points(bench::matmul2d_ns(max_ws, full));

  bench::run_figure(config, points,
                    {bench::eager_spec(),
                     bench::dmdar_spec(),
                     bench::darts_spec({.use_luf = false}),
                     bench::darts_spec({.use_luf = true}),
                     bench::hmetis_spec(/*with_partition_time=*/false)});
  return 0;
}
