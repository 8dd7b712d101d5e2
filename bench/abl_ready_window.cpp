// Ablation: the Ready lookahead window. StarPU's dmdar scans the whole
// local queue; this sweep shows how DMDAR degrades toward EAGER as the
// window shrinks (the paper's Section V-B explanation of why Ready rescues
// DMDAR from the LRU pathology requires reaching tasks a full row ahead).
#include <memory>
#include <string>

#include "common/figure_harness.hpp"
#include "matmul_points.hpp"
#include "sched/dmda.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Ready-window ablation for DMDAR");
  bench::add_standard_flags(flags, bench::kObserverFlags, /*default_gpus=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_ready_window", "Ready window ablation on 2D matmul");
  bench::RunObserver observer(config);
  const bool full = flags.get_bool("full");
  const auto ns = bench::matmul2d_ns(full ? 2000.0 : 1400.0, full);

  util::CsvWriter csv(
      {"working_set_mb", "ready_window", "gflops", "transfers_mb"},
      config.output_path);

  const std::size_t unlimited = sched::kDefaultReadyWindow;
  for (std::uint32_t n : ns) {
    const core::TaskGraph graph = work::make_matmul_2d({.n = n});
    const double ws_mb =
        static_cast<double>(graph.working_set_bytes()) / 1e6;
    for (std::size_t window : {std::size_t{1}, std::size_t{8},
                               std::size_t{64}, std::size_t{512}, unlimited}) {
      sched::DmdaScheduler scheduler(/*ready=*/true, window);
      sim::RuntimeEngine engine(graph, config.platform, scheduler,
                                {.seed = config.seed});
      const core::RunMetrics metrics = observer.run(
          engine, graph,
          "window=" + (window == unlimited ? std::string("unlimited")
                                           : std::to_string(window)) +
              " n=" + std::to_string(n));
      csv.row({ws_mb,
               window == unlimited ? std::string("unlimited")
                                   : std::to_string(window),
               metrics.achieved_gflops(), metrics.transfers_mb()});
    }
  }
  return 0;
}
