// Figure 12: sparse 2D matrix multiplication (98% of tasks dropped) on
// 4 V100s with 500 MB memories — a transfer-dominated regime where DARTS
// must "navigate between sparse tasks without generating too many
// transfers".
#include "common/figure_harness.hpp"
#include "workloads/matmul2d.hpp"
#include "workloads/sparse_matmul.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 12: sparse 2D matmul, 4 GPUs, 500 MB memories");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/4);
  flags.define_double("keep", 0.02, "fraction of tasks kept");
  flags.define_int("sparse-seed", 3, "task-dropping seed");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "fig12", "sparse 2D matmul on 4 V100s, performance");
  const bool full = flags.get_bool("full");
  const double keep = flags.get_double("keep");
  const auto sparse_seed =
      static_cast<std::uint64_t>(flags.get_int("sparse-seed"));

  // Working set = 2 N * 14 MB; the paper sweeps to ~20 000 MB (N=714).
  std::vector<std::uint32_t> ns =
      full ? std::vector<std::uint32_t>{36, 71, 107, 142, 214, 285, 357, 500,
                                        607, 714}
           : std::vector<std::uint32_t>{36, 71, 142, 214, 285, 357};
  std::vector<bench::WorkloadPoint> points;
  for (std::uint32_t n : ns) {
    points.push_back(bench::WorkloadPoint{
        static_cast<double>(work::matmul_2d_working_set(n)) / 1e6,
        [n, keep, sparse_seed] {
          return work::make_sparse_matmul(
              {.n = n, .keep_fraction = keep, .seed = sparse_seed});
        }});
  }

  bench::run_figure(
      config, points,
      {bench::eager_spec(),
       bench::dmdar_spec(),
       bench::darts_spec({.use_luf = true}, /*with_sched_time=*/true),
       bench::darts_spec({.use_luf = true, .opti = true},
                         /*with_sched_time=*/true),
       bench::hmetis_spec(/*with_partition_time=*/true),
       bench::hmetis_spec(/*with_partition_time=*/false)});
  return 0;
}
