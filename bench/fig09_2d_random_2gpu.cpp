// Figure 9: 2D matmul with *randomized submission order* on 2 V100s —
// stresses how much each scheduler relies on a friendly natural order.
// EAGER, DMDAR and hMETIS+R degrade as soon as both matrices stop fitting;
// DARTS+LUF is essentially order-independent.
#include "common/figure_harness.hpp"
#include "matmul_points.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 9: randomized 2D matmul, 2 GPUs");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/2);
  flags.define_int("order-seed", 1, "seed of the submission-order shuffle");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig09", "2D matmul, randomized submission order, 2 V100s");
  const bool full = flags.get_bool("full");
  const double max_ws = full ? 1700.0 : 1700.0;
  const auto points = bench::matmul2d_points(
      bench::matmul2d_ns(max_ws, full), /*randomize=*/true,
      static_cast<std::uint64_t>(flags.get_int("order-seed")));

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
