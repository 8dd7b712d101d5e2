// Ablation: push-time prefetch policy for DMDAR — none, free-space-only
// hints (our default), and *evicting* hints (StarPU prefetches allocate
// eagerly). The result cuts both ways, which is the point: because our
// hint queue is ordered by first need, evicting hints act as an oracle
// streaming prefetcher and *rescue* DMDAR's pathological points under the
// natural order (+3x at ws=1904 MB); under the randomized order the same
// mechanism prefetches the wrong data and hurts. StarPU sits between these
// poles — its prefetches are eager like the third mode but not globally
// ordered, which is the prefetch/eviction conflict of the paper's
// Section V-B discussion.
#include <memory>

#include "common/figure_harness.hpp"
#include "matmul_points.hpp"
#include "sched/dmda.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Push-prefetch ablation for DMDAR");
  bench::add_standard_flags(flags, bench::kFigureFlags, /*default_gpus=*/2);
  flags.define_bool("random-order", false,
                    "use the randomized submission order (Figure 9 regime)");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_push_prefetch", "DMDAR push-prefetch policy ablation");
  const bool full = flags.get_bool("full");
  const bool random = flags.get_bool("random-order");
  const auto points = bench::matmul2d_points(
      bench::matmul2d_ns(full ? 2800.0 : 2000.0, full), random, 1);

  auto dmdar = [](const char* label, bool push, bool evicting) {
    bench::SchedulerSpec spec;
    spec.label = label;
    spec.factory = [push] {
      return std::make_unique<sched::DmdaScheduler>(
          /*ready=*/true, sched::kDefaultReadyWindow, /*push_prefetch=*/push);
    };
    spec.hints_may_evict = evicting;
    return spec;
  };

  bench::run_figure(
      config, points,
      {dmdar("DMDAR (no push prefetch)", false, false),
       dmdar("DMDAR (hints fill free space)", true, false),
       dmdar("DMDAR (hints may evict)", true, true)});
  return 0;
}
