// Ablation: task stealing on/off for the statically-partitioned schedulers
// (mHFP, hMETIS+R) on 4 GPUs. Stealing is step 5/8 of Algorithms 3/4; this
// quantifies how much of their multi-GPU performance it accounts for.
#include <memory>

#include "common/figure_harness.hpp"
#include "matmul_points.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Stealing ablation: mHFP / hMETIS+R with and without");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/4);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_stealing", "task-stealing ablation on 2D matmul");
  const bool full = flags.get_bool("full");
  const auto points =
      bench::matmul2d_points(bench::matmul2d_ns(full ? 3000.0 : 2000.0, full));

  auto hmetis = [](bool stealing) {
    bench::SchedulerSpec spec;
    spec.label = stealing ? "hMETIS+R (steal)" : "hMETIS+R (no steal)";
    spec.factory = [stealing] {
      return std::make_unique<sched::HmetisScheduler>(stealing);
    };
    return spec;
  };
  auto mhfp = [](bool stealing) {
    bench::SchedulerSpec spec;
    spec.label = stealing ? "mHFP (steal)" : "mHFP (no steal)";
    spec.factory = [stealing] {
      return std::make_unique<sched::HfpScheduler>(stealing);
    };
    spec.max_working_set_mb = 1700.0;
    return spec;
  };

  bench::run_figure(config, points,
                    {hmetis(true), hmetis(false), mhfp(true), mhfp(false)});
  return 0;
}
