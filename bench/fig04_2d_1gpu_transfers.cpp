// Figure 4: amount of data transfers (MB) for the Figure 3 experiment; the
// per-point "pci_limit_mb" comment carries the PCI-bus-limit reference
// curve.
#include "common/figure_harness.hpp"
#include "matmul_points.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 4: 2D matmul, 1 GPU, transfers vs working set");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig04", "2D matmul on 1 V100, data transfers");
  const bool full = flags.get_bool("full");
  const auto points =
      bench::matmul2d_points(bench::matmul2d_ns(2000.0, full));

  // Transfer volumes are independent of scheduler-cost accounting, so the
  // mHFP timing variants collapse to one curve here.
  const double mhfp_cap = full ? 1400.0 : 1200.0;
  bench::run_figure(config, points,
                    {bench::eager_spec(),
                     bench::dmdar_spec(),
                     bench::darts_spec({.use_luf = false}),
                     bench::darts_spec({.use_luf = true}),
                     bench::mhfp_spec(/*with_sched_time=*/false, mhfp_cap)});
  return 0;
}
