// Figure 10: 3D matrix multiplication on 4 V100s in simulation, adding the
// DARTS+LUF-3inputs variant: when no single load frees a task, pick the
// data that brings the most tasks within one further load.
#include "common/figure_harness.hpp"
#include "workloads/matmul3d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 10: 3D matmul, 4 GPUs, simulation");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/4);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig10", "3D matmul on 4 V100s, simulation, performance");
  const bool full = flags.get_bool("full");

  // Working set = 2 N^2 * 14 MB; the paper sweeps up to ~50 000 MB (N=42).
  std::vector<std::uint32_t> ns = full
      ? std::vector<std::uint32_t>{4, 6, 8, 10, 12, 15, 18, 21, 25, 30, 36, 42}
      : std::vector<std::uint32_t>{4, 6, 8, 10, 12, 14, 16};
  std::vector<bench::WorkloadPoint> points;
  for (std::uint32_t n : ns) {
    points.push_back(bench::WorkloadPoint{
        static_cast<double>(work::matmul_3d_working_set(n)) / 1e6,
        [n] { return work::make_matmul_3d({.n = n}); }});
  }

  bench::run_figure(
      config, points,
      {bench::eager_spec(),
       bench::dmdar_spec(),
       bench::darts_spec({.use_luf = true}),
       bench::darts_spec({.use_luf = true, .three_inputs = true}),
       bench::hmetis_spec(/*with_partition_time=*/false)});
  return 0;
}
