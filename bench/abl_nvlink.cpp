// Ablation: inter-GPU (NVLink) transfers — the paper's Section VI future
// work ("moving data from a nearby GPU is usually faster than loading it
// from the main memory"). Compares host-bus-only against peer-capable
// platforms on the multi-GPU 2D matmul: host traffic drops and the
// memory-constrained regime recovers throughput.
#include <memory>
#include <string>

#include "common/figure_harness.hpp"
#include "core/darts.hpp"
#include "matmul_points.hpp"
#include "sched/dmda.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("NVLink ablation: peer transfers on/off, 4 GPUs");
  bench::add_standard_flags(flags, bench::kObserverFlags, /*default_gpus=*/4);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_nvlink", "NVLink on/off ablation on 2D matmul");
  bench::RunObserver observer(config);
  const bool full = flags.get_bool("full");
  const auto ns = bench::matmul2d_ns(full ? 6000.0 : 3000.0, full);

  util::CsvWriter csv({"working_set_mb", "scheduler", "nvlink", "gflops",
                       "host_transfers_mb", "peer_transfers_mb"},
                      config.output_path);

  for (std::uint32_t n : ns) {
    const core::TaskGraph graph = work::make_matmul_2d({.n = n});
    const double ws_mb =
        static_cast<double>(graph.working_set_bytes()) / 1e6;
    for (const bool nvlink : {false, true}) {
      core::Platform platform = config.platform;
      platform.nvlink_enabled = nvlink;
      for (const bool use_darts : {true, false}) {
        std::unique_ptr<core::Scheduler> scheduler;
        if (use_darts) {
          scheduler = std::make_unique<core::DartsScheduler>();
        } else {
          scheduler = std::make_unique<sched::DmdaScheduler>();
        }
        sim::RuntimeEngine engine(graph, platform, *scheduler,
                                  {.seed = config.seed});
        const core::RunMetrics metrics = observer.run(
            engine, graph,
            std::string(scheduler->name()) + (nvlink ? " nvlink" : " host-bus") +
                " n=" + std::to_string(n));
        csv.row({ws_mb, std::string(scheduler->name()),
                 std::string(nvlink ? "on" : "off"),
                 metrics.achieved_gflops(), metrics.transfers_mb(),
                 metrics.peer_transfers_mb()});
      }
    }
  }
  return 0;
}
