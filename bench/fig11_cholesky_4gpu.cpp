// Figure 11: tasks from the Cholesky decomposition (dependencies removed)
// on 4 V100s, with scheduler cost charged. The large task count (O(N^3/6))
// is what motivates DARTS's OPTI variant; GEMM's three inputs exercise
// 3inputs.
#include "common/figure_harness.hpp"
#include "workloads/cholesky.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Figure 11: Cholesky task set, 4 GPUs");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/4);
  flags.define_bool("deps", false,
                    "restore the factorization's real task dependencies "
                    "(the paper strips them; see docs/ARCHITECTURE.md)");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const bool deps = flags.get_bool("deps");
  const auto config = bench::config_from_flags(
      flags, deps ? "fig11_deps" : "fig11",
      deps ? "Cholesky tile DAG (with dependencies) on 4 V100s, performance"
           : "Cholesky task set on 4 V100s, performance");
  const bool full = flags.get_bool("full");

  // Working set = N(N+1)/2 tiles of 3.6864 MB; paper sweeps to ~8000 MB
  // (N=65, ~47k tasks).
  std::vector<std::uint32_t> ns =
      full ? std::vector<std::uint32_t>{8, 12, 16, 20, 25, 30, 36, 42, 48, 56, 65}
           : std::vector<std::uint32_t>{8, 12, 16, 20, 24, 28, 32};
  std::vector<bench::WorkloadPoint> points;
  for (std::uint32_t n : ns) {
    points.push_back(bench::WorkloadPoint{
        static_cast<double>(work::cholesky_working_set(n)) / 1e6,
        [n, deps] {
          return work::make_cholesky_tasks(
              {.n = n, .with_dependencies = deps});
        }});
  }

  bench::run_figure(
      config, points,
      {bench::eager_spec(),
       bench::dmdar_spec(),
       bench::darts_spec({.use_luf = true}, /*with_sched_time=*/true),
       bench::darts_spec({.use_luf = true, .three_inputs = true},
                         /*with_sched_time=*/true),
       bench::darts_spec({.use_luf = true, .three_inputs = true, .opti = true},
                         /*with_sched_time=*/true),
       bench::hmetis_spec(/*with_partition_time=*/true),
       bench::hmetis_spec(/*with_partition_time=*/false)});
  return 0;
}
