// Ablation: DARTS decision-cost variants — the paper's Section VI first
// future-work item ("improve the computational complexity of DARTS without
// sacrificing too much on the schedule quality"). Compares the faithful
// scan, the paper's OPTI and threshold mitigations, and our incremental
// n(D) maintenance, reporting both schedule quality (GFlop/s with the
// decision time charged) and the raw decision cost.
#include <memory>
#include <string>

#include "common/figure_harness.hpp"
#include "core/darts.hpp"
#include "matmul_points.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "workloads/cholesky.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags("DARTS decision-cost ablation (scan vs OPTI vs "
                    "threshold vs incremental)");
  bench::add_standard_flags(flags, bench::kObserverFlags, /*default_gpus=*/4);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_darts_cost", "DARTS variants: quality vs decision cost");
  bench::RunObserver observer(config);
  const bool full = flags.get_bool("full");

  util::CsvWriter csv({"workload", "working_set_mb", "variant", "gflops",
                       "transfers_mb", "decision_ms"},
                      config.output_path);

  struct Variant {
    const char* label;
    core::DartsOptions options;
  };
  const Variant variants[] = {
      {"scan", {.use_luf = true}},
      {"OPTI", {.use_luf = true, .opti = true}},
      {"threshold", {.use_luf = true, .scan_threshold = 50}},
      {"incremental", {.use_luf = true, .incremental = true}},
  };

  auto run_point = [&](const std::string& workload,
                       const core::TaskGraph& graph) {
    const double ws_mb =
        static_cast<double>(graph.working_set_bytes()) / 1e6;
    for (const Variant& variant : variants) {
      core::DartsScheduler darts(variant.options);
      sim::EngineConfig engine_config;
      engine_config.seed = config.seed;
      engine_config.account_scheduler_cost = true;
      sim::RuntimeEngine engine(graph, config.platform, darts, engine_config);
      const core::RunMetrics metrics =
          observer.run(engine, graph, workload + " " + variant.label);
      csv.row({workload, ws_mb, std::string(variant.label),
               metrics.achieved_gflops(), metrics.transfers_mb(),
               metrics.scheduler_pop_us / 1e3});
    }
  };

  for (std::uint32_t n : bench::matmul2d_ns(full ? 6000.0 : 3000.0, full)) {
    run_point("matmul2d", work::make_matmul_2d({.n = n}));
  }
  const std::vector<std::uint32_t> cholesky_ns =
      full ? std::vector<std::uint32_t>{16, 24, 32, 40, 48}
           : std::vector<std::uint32_t>{16, 24, 32};
  for (std::uint32_t n : cholesky_ns) {
    run_point("cholesky", work::make_cholesky_tasks({.n = n}));
  }
  return 0;
}
