// Ablation: worker pipeline depth (taskBuffer size / prefetch lookahead).
// Depth 1 disables ahead-of-time prefetch entirely; deeper pipelines hide
// more transfer latency but pin more memory, which is the trade-off the
// paper's prefetch/eviction discussion (Section V-B, DMDAR) revolves
// around.
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
  util::Flags flags("Prefetch-depth ablation");
  bench::add_standard_flags(flags, bench::kObserverFlags, /*default_gpus=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_prefetch", "pipeline depth ablation on 2D matmul");
  bench::RunObserver observer(config);
  const bool full = flags.get_bool("full");
  const auto ns = bench::matmul2d_ns(full ? 2000.0 : 1400.0, full);

  util::CsvWriter csv({"working_set_mb", "scheduler", "pipeline_depth",
                       "gflops", "transfers_mb"},
                      config.output_path);

  for (std::uint32_t n : ns) {
    const core::TaskGraph graph = work::make_matmul_2d({.n = n});
    const double ws_mb =
        static_cast<double>(graph.working_set_bytes()) / 1e6;
    for (std::uint32_t depth : {1u, 2u, 4u, 8u, 16u}) {
      for (const bool use_darts : {true, false}) {
        std::unique_ptr<core::Scheduler> scheduler;
        if (use_darts) {
          scheduler = std::make_unique<core::DartsScheduler>();
        } else {
          scheduler = std::make_unique<sched::DmdaScheduler>();
        }
        sim::EngineConfig engine_config;
        engine_config.seed = config.seed;
        engine_config.pipeline_depth = depth;
        sim::RuntimeEngine engine(graph, config.platform, *scheduler,
                                  engine_config);
        const core::RunMetrics metrics = observer.run(
            engine, graph,
            std::string(scheduler->name()) + " depth=" + std::to_string(depth) +
                " n=" + std::to_string(n));
        csv.row({ws_mb, std::string(scheduler->name()),
                 static_cast<std::int64_t>(depth), metrics.achieved_gflops(),
                 metrics.transfers_mb()});
      }
    }
  }
  return 0;
}
