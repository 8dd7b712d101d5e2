// memsched_run — general-purpose simulation driver.
//
// Runs any (workload, scheduler, platform) combination from the command
// line and prints the full metric set; the Swiss-army knife for exploring
// configurations beyond the fixed figure harnesses.
//
//   ./memsched_run --workload=matmul2d --n=40 --scheduler=darts+luf --gpus=2
//   ./memsched_run --workload=cholesky --n=24 --scheduler=hmetis+r \
//                  --gpus=4 --mem-mb=500 --sched-cost
//   ./memsched_run --workload=sparse --n=200 --scheduler=dmdar --nvlink
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "analysis/offline_model.hpp"
#include "analysis/schedule_io.hpp"
#include "analysis/trace_export.hpp"
#include "cluster/hierarchical.hpp"
#include "cluster/locality.hpp"
#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"
#include "serve/observed_run.hpp"
#include "sim/engine.hpp"
#include "sim/engine_guard.hpp"
#include "sim/fault_injector.hpp"
#include "sim/platform_flags.hpp"
#include "util/flags.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mg;

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& name) {
  if (name == "eager") return std::make_unique<sched::EagerScheduler>();
  if (name == "dmda") return std::make_unique<sched::DmdaScheduler>(false);
  if (name == "dmdar") return std::make_unique<sched::DmdaScheduler>(true);
  if (name == "mhfp") return std::make_unique<sched::HfpScheduler>();
  if (name == "hmetis+r") return std::make_unique<sched::HmetisScheduler>();
  if (name == "darts") {
    return std::make_unique<core::DartsScheduler>(
        core::DartsOptions{.use_luf = false});
  }
  if (name == "darts+luf") return std::make_unique<core::DartsScheduler>();
  if (name == "darts+luf+opti") {
    return std::make_unique<core::DartsScheduler>(
        core::DartsOptions{.use_luf = true, .opti = true});
  }
  if (name == "darts+luf-3inputs") {
    return std::make_unique<core::DartsScheduler>(
        core::DartsOptions{.use_luf = true, .three_inputs = true});
  }
  if (name == "darts+luf+opti-3inputs") {
    return std::make_unique<core::DartsScheduler>(core::DartsOptions{
        .use_luf = true, .three_inputs = true, .opti = true});
  }
  if (name == "locality") return std::make_unique<cluster::LocalityScheduler>();
  // hier:<inner> wraps any of the above in the hierarchical inter-node
  // partitioner (one <inner> instance per cluster node).
  if (name.rfind("hier:", 0) == 0) {
    const std::string inner = name.substr(5);
    if (make_scheduler(inner) == nullptr) return nullptr;  // validate early
    return std::make_unique<cluster::HierarchicalScheduler>(
        [inner] { return make_scheduler(inner); });
  }
  return nullptr;
}

core::TaskGraph make_workload(const std::string& name, std::uint32_t n,
                              std::uint64_t seed, double keep,
                              std::uint64_t output_bytes) {
  if (name == "matmul2d") {
    return work::make_matmul_2d({.n = n, .output_bytes = output_bytes});
  }
  if (name == "matmul2d-random") {
    return work::make_matmul_2d(
        {.n = n, .randomize_order = true, .seed = seed,
         .output_bytes = output_bytes});
  }
  if (name == "matmul3d") return work::make_matmul_3d({.n = n});
  if (name == "cholesky") {
    return work::make_cholesky_tasks({.n = n,
                                      .with_outputs = output_bytes > 0});
  }
  if (name == "sparse") {
    return work::make_sparse_matmul(
        {.n = n, .keep_fraction = keep, .seed = seed});
  }
  if (name == "random") {
    return work::make_random_bipartite(
        {.num_tasks = n * n, .num_data = 2 * n, .min_inputs = 1,
         .max_inputs = 3, .seed = seed});
  }
  std::fprintf(stderr, "bad value for --workload: '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "memsched_run: simulate one (workload, scheduler, platform) combo.\n"
      "workloads: matmul2d, matmul2d-random, matmul3d, cholesky, sparse, "
      "random\n"
      "schedulers: eager, dmda, dmdar, mhfp, hmetis+r, darts, darts+luf,\n"
      "            darts+luf+opti, darts+luf-3inputs, darts+luf+opti-3inputs,\n"
      "            locality, hier:<any of the above>");
  flags.define_string("workload", "matmul2d", "workload generator")
      .define_int("n", 20, "workload dimension (N)", /*min_value=*/1)
      .define_string("scheduler", "darts+luf", "scheduling policy")
      .define_int("seed", 42, "RNG seed")
      .define_double("keep", 0.02, "sparse keep fraction")
      .define_int("output-kb", 0, "output bytes per task (KB), 0 = none")
      .define_int("pipeline-depth", 4, "worker pipeline depth")
      .define_bool("sched-cost", false, "charge measured scheduler time")
      .define_bool("nvlink", false, "enable peer-to-peer transfers")
      .define_list("speeds", "",
                   "comma-separated per-GPU GFlop/s for heterogeneous "
                   "platforms (overrides --gpus count)",
                   {.min_exclusive = true})
      .define_bool("validate", true,
                   "check the run online against the execution model")
      .define_bool("stats", false, "print data-reuse statistics")
      .define_string("trace-json", "",
                     "write a chrome://tracing JSON to this path")
      .define_string("save-schedule", "",
                     "archive the realized per-GPU execution order here")
      .define_string("replay-schedule", "",
                     "ignore --scheduler and replay an archived schedule");
  sim::add_platform_flags(flags, /*default_gpus=*/1, /*default_mem_mb=*/500);
  sim::add_fault_plan_flag(flags);
  sim::add_recovery_flags(flags);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  using namespace mg;
  const core::TaskGraph graph = make_workload(
      flags.get_string("workload"),
      static_cast<std::uint32_t>(flags.get_int("n")),
      static_cast<std::uint64_t>(flags.get_int("seed")),
      flags.get_double("keep"),
      static_cast<std::uint64_t>(flags.get_int("output-kb")) * 1000);

  core::Platform platform =
      sim::platform_from_flags(flags, flags.get_list("speeds"));
  platform.nvlink_enabled = flags.get_bool("nvlink");

  if (!sim::mem_mb_holds_every_task(
          flags.get_int("mem-mb"), platform.gpu_memory_bytes,
          std::span<const core::TaskGraph>(&graph, 1))) {
    return 2;
  }

  std::unique_ptr<core::Scheduler> scheduler;
  if (!flags.get_string("replay-schedule").empty()) {
    const auto schedule =
        analysis::load_schedule(flags.get_string("replay-schedule"));
    if (!schedule.has_value() ||
        !analysis::schedule_matches_graph(*schedule, graph) ||
        schedule->size() != platform.num_gpus) {
      std::fprintf(stderr,
                   "bad value for --replay-schedule: '%s' (unreadable, or "
                   "not a schedule of this graph and GPU count)\n",
                   flags.get_string("replay-schedule").c_str());
      return 2;
    }
    scheduler = std::make_unique<sched::FixedOrderScheduler>(*schedule);
  } else {
    scheduler = make_scheduler(flags.get_string("scheduler"));
  }
  if (scheduler == nullptr) {
    std::fprintf(stderr, "bad value for --scheduler: '%s'\n",
                 flags.get_string("scheduler").c_str());
    return 2;
  }

  sim::EngineConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.pipeline_depth =
      static_cast<std::uint32_t>(flags.get_int("pipeline-depth"));
  config.account_scheduler_cost = flags.get_bool("sched-cost");
  config.checkpoint_interval_us = flags.get_double("checkpoint-interval");
  config.checkpoint_fraction = flags.get_double("checkpoint-fraction");
  config.replicate_hot = flags.get_bool("replicate-hot");

  std::unique_ptr<sim::FaultInjector> injector;
  if (auto plan = sim::fault_plan_from_flags(flags)) {
    injector = std::make_unique<sim::FaultInjector>(std::move(*plan));
  }

  sim::RuntimeEngine engine(graph, platform, *scheduler, config);
  if (injector != nullptr) engine.set_fault_injector(injector.get());
  // --validate checks the run online, faulted runs included; the collector
  // records the execution trace the --stats, --save-schedule and
  // --trace-json outputs read.
  serve::RunOutputs outputs("", flags.get_string("trace-json"));
  const bool record = flags.get_bool("stats") || outputs.tracing() ||
                      !flags.get_string("save-schedule").empty();
  const serve::RunInspectors inspectors(
      engine, {.check = flags.get_bool("validate"),
               .collect = record,
               .trace = record,
               .context = "memsched_run"});
  const core::RunMetrics metrics =
      sim::run_engine_or_exit(engine, "memsched_run");
  const sim::Trace& trace = inspectors.trace();

  std::printf("workload   : %s N=%lld (%u tasks, %u data, %.0f MB)\n",
              flags.get_string("workload").c_str(),
              static_cast<long long>(flags.get_int("n")), graph.num_tasks(),
              graph.num_data(),
              static_cast<double>(graph.working_set_bytes()) / 1e6);
  std::printf("scheduler  : %s\n",
              std::string(scheduler->name()).c_str());
  if (platform.is_cluster()) {
    std::printf("platform   : %u GPU(s) x %.0f MB over %u nodes "
                "(net %.1f GB/s + %.0f us)%s\n",
                platform.num_gpus,
                static_cast<double>(platform.gpu_memory_bytes) / 1e6,
                platform.num_nodes,
                platform.net_bandwidth_bytes_per_s / 1e9,
                platform.net_latency_us,
                platform.nvlink_enabled ? " + NVLink" : "");
  } else {
    std::printf("platform   : %u GPU(s) x %.0f MB%s\n", platform.num_gpus,
                static_cast<double>(platform.gpu_memory_bytes) / 1e6,
                platform.nvlink_enabled ? " + NVLink" : "");
  }
  std::printf("gflops     : %.0f (peak %.0f)\n", metrics.achieved_gflops(),
              platform.peak_gflops());
  std::printf("makespan   : %.2f ms\n", metrics.wall_makespan_us() / 1e3);
  std::printf("transfers  : %.0f MB host, %.0f MB peer, %.0f MB written back\n",
              metrics.transfers_mb(), metrics.peer_transfers_mb(),
              static_cast<double>(metrics.total_bytes_written_back()) / 1e6);
  std::printf("loads floor: %.0f MB (every used data once)\n",
              static_cast<double>(analysis::bytes_lower_bound(graph)) / 1e6);
  std::printf("evictions  : %llu\n",
              static_cast<unsigned long long>(metrics.total_evictions()));
  std::printf("sched cost : prepare %.2f ms, decisions %.2f ms%s\n",
              metrics.scheduler_prepare_us / 1e3,
              metrics.scheduler_pop_us / 1e3,
              metrics.scheduler_cost_accounted ? " (charged)" : "");
  if (injector != nullptr) {
    std::printf("faults     : %u gpu loss(es), %u capacity shock(s), "
                "%llu task(s) reclaimed\n",
                metrics.faults.gpu_losses, metrics.faults.capacity_shocks,
                static_cast<unsigned long long>(
                    metrics.faults.tasks_reclaimed));
    std::printf("             %llu transfer retries (%.1f MB re-sent), "
                "%llu emergency evictions\n",
                static_cast<unsigned long long>(
                    metrics.faults.transfer_retries),
                static_cast<double>(metrics.faults.wasted_transfer_bytes) /
                    1e6,
                static_cast<unsigned long long>(
                    metrics.faults.emergency_evictions));
    if (metrics.faults.checkpoints_taken > 0 ||
        metrics.faults.tasks_restored > 0) {
      std::printf("             %llu checkpoint(s) (%.2f ms overhead), "
                  "%llu restore(s) saving %.2f ms of compute\n",
                  static_cast<unsigned long long>(
                      metrics.faults.checkpoints_taken),
                  metrics.faults.checkpoint_overhead_us / 1e3,
                  static_cast<unsigned long long>(
                      metrics.faults.tasks_restored),
                  metrics.faults.compute_saved_us / 1e3);
    }
    if (metrics.faults.replicas_created > 0) {
      std::printf("             %llu replica(s) (%.1f MB, %llu shed, "
                  "%llu protected), %llu post-loss host load(s)\n",
                  static_cast<unsigned long long>(
                      metrics.faults.replicas_created),
                  static_cast<double>(metrics.faults.replica_bytes) / 1e6,
                  static_cast<unsigned long long>(
                      metrics.faults.replicas_shed),
                  static_cast<unsigned long long>(
                      metrics.faults.replicas_protected),
                  static_cast<unsigned long long>(
                      metrics.faults.post_loss_host_loads));
    }
    if (metrics.faults.replay_divergences > 0) {
      std::printf("             %u replay divergence(s), %llu recorded "
                  "task(s) reassigned to survivors\n",
                  metrics.faults.replay_divergences,
                  static_cast<unsigned long long>(
                      metrics.faults.replay_reassigned_tasks));
    }
  }
  for (std::size_t gpu = 0; gpu < metrics.per_gpu.size(); ++gpu) {
    const auto& per = metrics.per_gpu[gpu];
    std::printf("  gpu%zu: %llu tasks, %.0f MB loaded, busy %.1f%%\n", gpu,
                static_cast<unsigned long long>(per.tasks_executed),
                static_cast<double>(per.bytes_loaded) / 1e6,
                100.0 * per.busy_time_us / metrics.makespan_us);
  }

  (void)inspectors.finish();  // exits 1 on a violation
  if (flags.get_bool("validate")) std::printf("trace      : valid\n");

  if (flags.get_bool("stats")) {
    const analysis::ReuseStats stats =
        analysis::compute_reuse_stats(graph, platform, trace);
    std::printf("reuse      : %llu loads over %llu used data (mean %.2f "
                "loads/data, %llu reloads)\n",
                static_cast<unsigned long long>(stats.total_loads),
                static_cast<unsigned long long>(stats.distinct_data),
                stats.mean_loads_per_used_data,
                static_cast<unsigned long long>(stats.reloads));
    if (stats.most_reloaded != core::kInvalidData) {
      std::printf("             worst data: %u (%llu loads)\n",
                  stats.most_reloaded,
                  static_cast<unsigned long long>(stats.max_loads_one_data));
    }
    // Smallest memory for which each GPU's realized order would need no
    // reload at all (with optimal eviction).
    std::printf("             reload-free memory per GPU:");
    for (core::GpuId gpu = 0; gpu < platform.num_gpus; ++gpu) {
      std::printf(" %.0fMB",
                  static_cast<double>(analysis::max_live_footprint(
                      graph, trace.execution_order(gpu))) /
                      1e6);
    }
    std::printf("\n");
  }

  const std::string schedule_path = flags.get_string("save-schedule");
  if (!schedule_path.empty()) {
    analysis::Schedule schedule;
    for (core::GpuId gpu = 0; gpu < platform.num_gpus; ++gpu) {
      schedule.push_back(trace.execution_order(gpu));
    }
    if (analysis::save_schedule(schedule, schedule_path)) {
      std::printf("schedule   : %s\n", schedule_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write schedule to %s\n",
                   schedule_path.c_str());
      return 1;
    }
  }

  outputs.keep_trace(graph, platform, trace);
  outputs.write("memsched_run");
  if (outputs.tracing()) {
    std::printf("trace json : %s\n", flags.get_string("trace-json").c_str());
  }
  return 0;
}
