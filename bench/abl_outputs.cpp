// Ablation: task output write-backs. The paper excludes outputs, arguing
// they are much smaller than inputs and can be transferred concurrently
// with them; this harness quantifies that claim — each 2D-matmul task
// writes one 3.6864 MB C tile back to the host (vs 28 MB of inputs read).
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
  util::Flags flags("Output write-back ablation on the 2D matmul");
  bench::add_standard_flags(flags, bench::kObserverFlags, /*default_gpus=*/2);
  flags.define_int("output-kb", 3686, "output bytes per task (KB)");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_outputs", "task-output write-back ablation");
  bench::RunObserver observer(config);
  const bool full = flags.get_bool("full");
  const auto ns = bench::matmul2d_ns(full ? 2000.0 : 1400.0, full);
  const auto output_bytes =
      static_cast<std::uint64_t>(flags.get_int("output-kb")) * 1000;

  util::CsvWriter csv({"working_set_mb", "scheduler", "outputs", "gflops",
                       "transfers_mb", "written_back_mb"},
                      config.output_path);

  for (std::uint32_t n : ns) {
    for (const bool with_outputs : {false, true}) {
      const core::TaskGraph graph = work::make_matmul_2d(
          {.n = n, .output_bytes = with_outputs ? output_bytes : 0});
      const double ws_mb =
          static_cast<double>(graph.working_set_bytes()) / 1e6;
      for (const bool use_darts : {true, false}) {
        std::unique_ptr<core::Scheduler> scheduler;
        if (use_darts) {
          scheduler = std::make_unique<core::DartsScheduler>();
        } else {
          scheduler = std::make_unique<sched::DmdaScheduler>();
        }
        sim::RuntimeEngine engine(graph, config.platform, *scheduler,
                                  {.seed = config.seed});
        const core::RunMetrics metrics = observer.run(
            engine, graph,
            std::string(scheduler->name()) +
                (with_outputs ? " outputs" : " no-outputs") +
                " n=" + std::to_string(n));
        csv.row({ws_mb, std::string(scheduler->name()),
                 std::string(with_outputs ? "on" : "off"),
                 metrics.achieved_gflops(), metrics.transfers_mb(),
                 static_cast<double>(metrics.total_bytes_written_back()) /
                     1e6});
      }
    }
  }
  return 0;
}
