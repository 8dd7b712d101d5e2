// Ablation: eviction policy under a *fixed* schedule. DESIGN.md calls out
// LUF as the paper's key eviction contribution; this harness isolates it
// from schedule quality: run DARTS+LUF once, freeze the realized per-GPU
// execution order sigma, then replay exactly sigma under engine-LRU,
// engine-Belady (offline-optimal for sigma), and compare with the live
// DARTS runs (LRU vs LUF).
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/offline_model.hpp"
#include "common/figure_harness.hpp"
#include "core/darts.hpp"
#include "matmul_points.hpp"
#include "sched/fixed_order.hpp"
#include "sim/engine.hpp"
#include "sim/run_report.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("Eviction ablation: LRU vs Belady vs LUF on a fixed order");
  bench::add_standard_flags(flags, bench::kObserverFlags, /*default_gpus=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_eviction", "eviction policy ablation, fixed DARTS order");
  bench::RunObserver observer(config);
  const bool full = flags.get_bool("full");
  const auto ns = bench::matmul2d_ns(full ? 2000.0 : 1400.0, full);

  util::CsvWriter csv({"working_set_mb", "policy", "loads", "transfers_mb",
                       "gflops"},
                      config.output_path);
  csv.comment("eviction ablation on 2D matmul, " +
              std::to_string(config.platform.num_gpus) + " GPU(s)");

  for (std::uint32_t n : ns) {
    const core::TaskGraph graph = work::make_matmul_2d({.n = n});
    const double ws_mb =
        static_cast<double>(graph.working_set_bytes()) / 1e6;

    // Reference run: live DARTS+LUF, trace recorded.
    core::DartsScheduler darts_luf;
    sim::RuntimeEngine reference(graph, config.platform, darts_luf,
                                 {.seed = config.seed});
    sim::RunReportCollector recorder;
    reference.add_inspector(&recorder);
    const core::RunMetrics luf_metrics =
        observer.run(reference, graph, "DARTS+LUF (live) n=" + std::to_string(n));
    csv.row({ws_mb, std::string("DARTS+LUF (live)"),
             static_cast<std::int64_t>(luf_metrics.total_loads()),
             luf_metrics.transfers_mb(), luf_metrics.achieved_gflops()});

    // Live DARTS with default LRU.
    core::DartsScheduler darts_lru{core::DartsOptions{.use_luf = false}};
    sim::EngineConfig lru_config;
    lru_config.seed = config.seed;
    sim::RuntimeEngine lru_engine(graph, config.platform, darts_lru,
                                  lru_config);
    const core::RunMetrics lru_metrics =
        observer.run(lru_engine, graph, "DARTS+LRU (live) n=" + std::to_string(n));
    csv.row({ws_mb, std::string("DARTS+LRU (live)"),
             static_cast<std::int64_t>(lru_metrics.total_loads()),
             lru_metrics.transfers_mb(), lru_metrics.achieved_gflops()});

    // Frozen order replays.
    std::vector<std::vector<core::TaskId>> orders;
    for (core::GpuId gpu = 0; gpu < config.platform.num_gpus; ++gpu) {
      orders.push_back(recorder.trace().execution_order(gpu));
    }
    for (const bool belady : {false, true}) {
      sched::FixedOrderScheduler replay(
          orders, belady ? sched::FixedOrderScheduler::Eviction::kBelady
                         : sched::FixedOrderScheduler::Eviction::kEngineDefault);
      sim::RuntimeEngine engine(graph, config.platform, replay,
                                {.seed = config.seed});
      const core::RunMetrics metrics = observer.run(
          engine, graph,
          std::string(belady ? "fixed order + Belady" : "fixed order + LRU") +
              " n=" + std::to_string(n));
      csv.row({ws_mb,
               std::string(belady ? "fixed order + Belady"
                                  : "fixed order + LRU"),
               static_cast<std::int64_t>(metrics.total_loads()),
               metrics.transfers_mb(), metrics.achieved_gflops()});
    }

    // Offline Section-III model of the frozen order (loads only).
    const auto offline_belady = analysis::replay_schedule(
        graph, orders, config.platform.gpu_memory_bytes,
        analysis::ReplayEviction::kBelady);
    csv.row({ws_mb, std::string("offline model + Belady"),
             static_cast<std::int64_t>(offline_belady.total_loads),
             static_cast<double>(offline_belady.total_bytes) / 1e6, 0.0});
  }
  return 0;
}
