// Ablation: heterogeneous GPUs (2 fast + 2 slow devices). Shows which
// schedulers adapt their work split to device speed — DMDA by its
// completion-time model, mHFP by duration-balancing, hMETIS+R by target
// shares, DARTS and EAGER by their natural pull rate.
#include <cstdio>
#include <memory>
#include <string>

#include "common/figure_harness.hpp"
#include "core/darts.hpp"
#include "matmul_points.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Heterogeneous-GPU ablation (2 fast + 2 slow)");
  bench::add_standard_flags(flags, bench::kObserverFlags, /*default_gpus=*/4);
  flags.define_double("slow-factor", 0.5,
                      "speed of the slow devices relative to a V100",
                      {.min_exclusive = true});
  if (!flags.parse(argc, argv)) return flags.exit_status();

  auto config = bench::config_from_flags(
      flags, "abl_hetero", "heterogeneous platform ablation on 2D matmul");
  if (config.platform.num_gpus != 4) {
    std::fprintf(stderr, "bad value for --gpus: '%u' (abl_hetero needs 4: "
                 "2 fast and 2 slow)\n",
                 config.platform.num_gpus);
    return 2;
  }
  const double slow = flags.get_double("slow-factor");
  config.platform.gpu_gflops_per_device = {
      config.platform.gpu_gflops, config.platform.gpu_gflops,
      config.platform.gpu_gflops * slow, config.platform.gpu_gflops * slow};

  bench::RunObserver observer(config);
  const bool full = flags.get_bool("full");
  const auto ns = bench::matmul2d_ns(full ? 4000.0 : 2500.0, full);

  util::CsvWriter csv({"working_set_mb", "scheduler", "gflops",
                       "fast_tasks", "slow_tasks", "imbalance"},
                      config.output_path);
  char line[120];
  std::snprintf(line, sizeof line, "peak_gflops: %.0f (2 fast + 2 at %.0f%%)",
                config.platform.peak_gflops(), 100.0 * slow);
  csv.comment(line);

  for (std::uint32_t n : ns) {
    const core::TaskGraph graph = work::make_matmul_2d({.n = n});
    const double ws_mb =
        static_cast<double>(graph.working_set_bytes()) / 1e6;
    for (int kind = 0; kind < 5; ++kind) {
      std::unique_ptr<core::Scheduler> scheduler;
      switch (kind) {
        case 0: scheduler = std::make_unique<sched::EagerScheduler>(); break;
        case 1: scheduler = std::make_unique<sched::DmdaScheduler>(); break;
        case 2: scheduler = std::make_unique<core::DartsScheduler>(); break;
        case 3: scheduler = std::make_unique<sched::HfpScheduler>(); break;
        default: scheduler = std::make_unique<sched::HmetisScheduler>(); break;
      }
      if (kind == 3 && ws_mb > 1500.0) continue;  // mHFP packing cost
      sim::RuntimeEngine engine(graph, config.platform, *scheduler,
                                {.seed = config.seed});
      const core::RunMetrics metrics = observer.run(
          engine, graph, std::string(scheduler->name()) + " n=" + std::to_string(n));
      const auto fast = metrics.per_gpu[0].tasks_executed +
                        metrics.per_gpu[1].tasks_executed;
      const auto slow_tasks = metrics.per_gpu[2].tasks_executed +
                              metrics.per_gpu[3].tasks_executed;
      // Duration imbalance: max busy time / mean busy time.
      double max_busy = 0.0;
      double total_busy = 0.0;
      for (const auto& gpu : metrics.per_gpu) {
        max_busy = std::max(max_busy, gpu.busy_time_us);
        total_busy += gpu.busy_time_us;
      }
      csv.row({ws_mb, std::string(scheduler->name()),
               metrics.achieved_gflops(), static_cast<std::int64_t>(fast),
               static_cast<std::int64_t>(slow_tasks),
               max_busy / (total_busy / 4.0)});
    }
  }
  return 0;
}
