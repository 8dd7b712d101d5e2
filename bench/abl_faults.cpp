// Ablation: graceful degradation under injected faults. For each scheduler,
// run a 2D matmul fault-free to calibrate the makespan T, then re-run it
// under four fault scenarios scripted relative to T — flaky transfers, a
// GPU loss at 0.3 T, a capacity shock at 0.25 T, and all three combined —
// and report the throughput cost plus the recovery counters
// (docs/ROBUSTNESS.md). A final recovery sweep re-runs the GPU-loss
// scenario across checkpoint interval x replication, reporting
// recovery-latency p50/p95 (nearest-rank, the JobTracker convention) and
// post-loss host-bus loads: checkpointing shortens the re-run of the
// interrupted task, replication pre-places survivors' copies so the loss
// triggers fewer host reloads. With the InvariantChecker attached, every
// run also re-proves the degraded execution model online.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/figure_harness.hpp"
#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "serve/job_tracker.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "util/csv.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "Fault-injection ablation: scheduler throughput and recovery under "
      "GPU loss, flaky transfers and capacity shocks, plus a checkpoint x "
      "replication recovery sweep");
  bench::add_standard_flags(flags, bench::kTraceFlag | bench::kRecoveryFlags,
                            /*default_gpus=*/2);
  flags.define_int("n", 32, "2D matmul dimension (N)", /*min_value=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_faults", "graceful degradation under injected faults");
  bench::RunObserver observer(config);
  const std::uint32_t n = static_cast<std::uint32_t>(flags.get_int("n"));
  const core::TaskGraph graph = work::make_matmul_2d({.n = n});

  util::CsvWriter csv(
      {"scenario", "scheduler", "checkpoint_us", "replicate", "gflops",
       "makespan_ms", "gpu_losses", "capacity_shocks", "tasks_reclaimed",
       "transfer_retries", "wasted_mb", "emergency_evictions", "checkpoints",
       "tasks_restored", "replicas", "replicas_shed", "post_loss_host_loads",
       "recovery_p50_ms", "recovery_p95_ms"},
      config.output_path);
  csv.comment("fault ablation on 2D matmul N=" + std::to_string(n) + ", " +
              std::to_string(config.platform.num_gpus) + " GPU(s)");

  struct SchedulerEntry {
    std::string label;
    std::function<std::unique_ptr<core::Scheduler>()> factory;
  };
  const std::vector<SchedulerEntry> schedulers = {
      {"EAGER", [] { return std::make_unique<sched::EagerScheduler>(); }},
      {"DMDAR", [] { return std::make_unique<sched::DmdaScheduler>(); }},
      {"DARTS+LUF", [] { return std::make_unique<core::DartsScheduler>(); }},
      {"mHFP", [] { return std::make_unique<sched::HfpScheduler>(); }},
  };

  for (const SchedulerEntry& entry : schedulers) {
    // One faulted run; emits a CSV row and returns the makespan.
    auto run_faulted = [&](const std::string& scenario,
                           const sim::FaultPlan& plan,
                           double checkpoint_interval_us, bool replicate) {
      auto scheduler = entry.factory();
      sim::EngineConfig engine_config;
      engine_config.seed = config.seed;
      engine_config.checkpoint_interval_us = checkpoint_interval_us;
      engine_config.checkpoint_fraction = config.checkpoint_fraction;
      engine_config.replicate_hot = replicate;
      sim::RuntimeEngine engine(graph, config.platform, *scheduler,
                                engine_config);
      sim::FaultInjector injector(plan);
      engine.set_fault_injector(&injector);
      // Checked: a bad recovery exits 1.
      const core::RunMetrics metrics = observer.run(
          engine, graph, entry.label + " " + scenario, /*check=*/true);
      std::vector<double> recovery = metrics.faults.recovery_latency_us;
      std::sort(recovery.begin(), recovery.end());
      csv.row({scenario, entry.label, checkpoint_interval_us,
               std::int64_t{replicate ? 1 : 0}, metrics.achieved_gflops(),
               metrics.wall_makespan_us() / 1e3,
               static_cast<std::int64_t>(metrics.faults.gpu_losses),
               static_cast<std::int64_t>(metrics.faults.capacity_shocks),
               static_cast<std::int64_t>(metrics.faults.tasks_reclaimed),
               static_cast<std::int64_t>(metrics.faults.transfer_retries),
               static_cast<double>(metrics.faults.wasted_transfer_bytes) /
                   1e6,
               static_cast<std::int64_t>(metrics.faults.emergency_evictions),
               static_cast<std::int64_t>(metrics.faults.checkpoints_taken),
               static_cast<std::int64_t>(metrics.faults.tasks_restored),
               static_cast<std::int64_t>(metrics.faults.replicas_created),
               static_cast<std::int64_t>(metrics.faults.replicas_shed),
               static_cast<std::int64_t>(
                   metrics.faults.post_loss_host_loads),
               serve::nearest_rank_percentile(recovery, 50.0) / 1e3,
               serve::nearest_rank_percentile(recovery, 95.0) / 1e3});
    };

    // Calibration run: fault-free makespan anchors the scenario times.
    double makespan_us = 0.0;
    {
      auto scheduler = entry.factory();
      sim::RuntimeEngine engine(graph, config.platform, *scheduler,
                                {.seed = config.seed});
      const core::RunMetrics metrics =
          observer.run(engine, graph, entry.label + " none");
      makespan_us = metrics.makespan_us;
      csv.row({std::string("none"), entry.label, 0.0, std::int64_t{0},
               metrics.achieved_gflops(), metrics.wall_makespan_us() / 1e3,
               std::int64_t{0}, std::int64_t{0}, std::int64_t{0},
               std::int64_t{0}, 0.0, std::int64_t{0}, std::int64_t{0},
               std::int64_t{0}, std::int64_t{0}, std::int64_t{0},
               std::int64_t{0}, 0.0, 0.0});
    }

    sim::FaultPlan::TransferFault flaky;
    flaky.probability = 0.15;
    flaky.max_failures_per_transfer = 3;

    sim::FaultPlan::GpuLoss loss;
    loss.time_us = 0.3 * makespan_us;
    loss.gpu = config.platform.num_gpus - 1;

    sim::FaultPlan::CapacityShock shock;
    shock.time_us = 0.25 * makespan_us;
    shock.gpu = 0;
    shock.capacity_bytes = config.platform.gpu_memory_bytes / 3;

    struct Scenario {
      std::string name;
      sim::FaultPlan plan;
    };
    std::vector<Scenario> scenarios(4);
    scenarios[0].name = "transfer-flaky";
    scenarios[0].plan.transfer_faults.push_back(flaky);
    scenarios[1].name = "gpu-loss";
    scenarios[1].plan.gpu_losses.push_back(loss);
    scenarios[2].name = "capacity-shock";
    scenarios[2].plan.capacity_shocks.push_back(shock);
    scenarios[3].name = "combined";
    scenarios[3].plan.transfer_faults.push_back(flaky);
    scenarios[3].plan.gpu_losses.push_back(loss);
    scenarios[3].plan.capacity_shocks.push_back(shock);

    for (Scenario& scenario : scenarios) {
      scenario.plan.seed = config.seed;
      // The base scenarios honor the --checkpoint-interval /
      // --replicate-hot flags, so CI can smoke the proactive machinery
      // through the standard scenario set.
      run_faulted(scenario.name, scenario.plan, config.checkpoint_interval_us,
                  config.replicate_hot);
    }

    // Recovery sweep: the GPU-loss plan across checkpoint interval x
    // replication. Intervals sized against the task duration — snapshots
    // only matter when at least one boundary falls inside a task.
    const double task_us =
        config.platform.compute_time_us(graph.task_flops(0), 0);
    const std::vector<double> intervals = {0.0, task_us / 4.0,
                                           task_us / 16.0};
    for (const double interval : intervals) {
      for (const bool replicate : {false, true}) {
        run_faulted("recovery-sweep", scenarios[1].plan, interval, replicate);
      }
    }
  }
  return 0;
}
