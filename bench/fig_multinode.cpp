// fig_multinode — scaling one workload across cluster nodes.
//
// Sweeps the node count (default 1, 2, 4 over the same GPUs) for the
// node-oblivious schedulers (EAGER, DARTS+LUF, mHFP) against the
// hierarchical variants that partition the task graph *between nodes* with
// the hypergraph partitioner before handing each node to an unmodified
// intra-node scheduler, and the locality-aware dynamic policy. Per (nodes,
// scheduler) the CSV reports achieved GFlop/s, the inter-node network
// traffic from the run report's schema-5 "cluster" section, cross-node
// steal counts and the per-node task balance — the claim under test being
// that the hypergraph split moves measurably fewer bytes across the
// network than node-oblivious placement at equal balance.
//
//   ./fig_multinode --gpus=4 --n=16
//   ./fig_multinode --node-list=2 --run-report=multinode.json --check
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hierarchical.hpp"
#include "cluster/locality.hpp"
#include "common/figure_harness.hpp"
#include "core/darts.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "serve/observed_run.hpp"
#include "sim/engine.hpp"
#include "sim/run_report.hpp"
#include "util/csv.hpp"
#include "workloads/matmul2d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "fig_multinode: one workload scaled across cluster nodes.\n"
      "schedulers: EAGER, DARTS+LUF, mHFP, hier(mHFP), hier(DARTS+LUF), "
      "locality");
  bench::add_standard_flags(flags, bench::kBaseFlags, /*default_gpus=*/4);
  flags.define_int("n", 16, "matmul dimension (N^2 tasks, 2N data)",
                   /*min_value=*/1)
      .define_list("node-list", "1,2,4",
                   "comma-separated node counts to sweep (each must divide "
                   "into the GPU count with >= 1 GPU per node)",
                   {.min = 1, .integral = true})
      .define_bool("check", false,
                   "run the online InvariantChecker over every run");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  bench::FigureConfig config = bench::config_from_flags(
      flags, "fig_multinode", "inter-node traffic and balance vs. node count");
  const std::vector<double>& node_list = flags.get_list("node-list");
  if (std::none_of(node_list.begin(), node_list.end(), [&](double entry) {
        return entry <= config.platform.num_gpus;
      })) {
    std::fprintf(stderr,
                 "bad value for --node-list: no entry fits the %u GPUs\n",
                 config.platform.num_gpus);
    return 2;
  }

  const core::TaskGraph graph = work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n"))});

  struct Spec {
    std::string label;
    std::function<std::unique_ptr<core::Scheduler>()> factory;
  };
  const auto hier = [](bench::SchedulerSpec inner) {
    return [inner = std::move(inner)]() -> std::unique_ptr<core::Scheduler> {
      return std::make_unique<cluster::HierarchicalScheduler>(inner.factory);
    };
  };
  const std::vector<Spec> specs = {
      {"EAGER", [] { return std::make_unique<sched::EagerScheduler>(); }},
      {"DARTS+LUF", [] { return std::make_unique<core::DartsScheduler>(); }},
      {"mHFP", [] { return std::make_unique<sched::HfpScheduler>(); }},
      {"hier(mHFP)", hier(bench::mhfp_spec(false, 1e18))},
      {"hier(DARTS+LUF)", hier(bench::darts_spec(core::DartsOptions{}))},
      {"locality",
       [] { return std::make_unique<cluster::LocalityScheduler>(); }},
  };

  util::CsvWriter csv(
      {"nodes", "scheduler", "gflops", "makespan_ms", "network_mb",
       "network_transfers", "steals", "node_task_imbalance", "host_fills",
       "host_evicts", "loads", "transfers_mb"},
      config.output_path);
  csv.comment("fig_multinode: " + config.title);
  char line[160];
  std::snprintf(line, sizeof line,
                "platform: %u GPUs x %.0f MB; net %.1f GB/s + %.0f us; "
                "matmul n=%lld (%u tasks, %u data)",
                config.platform.num_gpus,
                static_cast<double>(config.platform.gpu_memory_bytes) / 1e6,
                config.platform.net_bandwidth_bytes_per_s / 1e9,
                config.platform.net_latency_us,
                static_cast<long long>(flags.get_int("n")), graph.num_tasks(),
                graph.num_data());
  csv.comment(line);

  serve::RunOutputs outputs(config.run_report_path);
  for (const double entry : node_list) {
    if (entry > config.platform.num_gpus) {
      std::fprintf(stderr, "skipping --node-list entry %g: need 1..%u\n",
                   entry, config.platform.num_gpus);
      continue;
    }
    const auto nodes = static_cast<std::uint32_t>(entry);
    core::Platform platform = config.platform;
    platform.num_nodes = nodes;

    for (const Spec& spec : specs) {
      auto scheduler = spec.factory();
      sim::EngineConfig engine_config;
      engine_config.seed = config.seed;
      sim::RuntimeEngine engine(graph, platform, *scheduler, engine_config);

      char context[96];
      std::snprintf(context, sizeof context, "fig_multinode nodes=%u", nodes);
      // The collector always rides along: the cluster section is where the
      // network traffic this figure plots comes from.
      auto run = serve::run_observed(engine, {.check = flags.get_bool("check"),
                                              .collect = true,
                                              .context = context});
      const core::RunMetrics& metrics = run.result;
      sim::RunReport& report = run.report;
      // Cross-node steals live in the hierarchical driver, not the engine —
      // patch them into the report like ServeEngine does for serving stats.
      if (const auto* hierarchical =
              dynamic_cast<const cluster::HierarchicalScheduler*>(
                  scheduler.get())) {
        report.cluster.steals = hierarchical->steal_count();
      }

      double node_imbalance = 1.0;
      if (report.cluster.enabled) {
        std::uint64_t max_tasks = 0;
        std::uint64_t total = 0;
        for (const auto& node : report.cluster.per_node) {
          max_tasks = std::max(max_tasks, node.tasks_executed);
          total += node.tasks_executed;
        }
        const double mean = static_cast<double>(total) /
                            static_cast<double>(report.cluster.per_node.size());
        node_imbalance =
            mean > 0.0 ? static_cast<double>(max_tasks) / mean : 1.0;
      }

      csv.row({static_cast<std::int64_t>(nodes), spec.label,
               metrics.achieved_gflops(),
               metrics.wall_makespan_us() / 1e3,
               static_cast<double>(report.cluster.network_bytes) / 1e6,
               static_cast<std::int64_t>(report.cluster.network_transfers),
               static_cast<std::int64_t>(report.cluster.steals),
               node_imbalance,
               static_cast<std::int64_t>(report.cluster.host_cache_fills),
               static_cast<std::int64_t>(report.cluster.host_cache_evictions),
               static_cast<std::int64_t>(metrics.total_loads()),
               metrics.transfers_mb()});
      outputs.keep(std::move(report));
    }
  }
  outputs.write("fig_multinode: " + config.title);
  return 0;
}
