// bench_autoscale — the repo's first tracked perf baseline.
//
// Runs one fixed, deterministic autoscaled serving scenario (multi-node
// platform, Poisson burst, scale-out + drain traffic) and emits
// BENCH_autoscale.json: simulation events processed, wall seconds,
// events/sec and peak RSS. CI runs it every push and uploads the JSON, so
// the bench trajectory finally has a point and an engine-layer slowdown
// (or a memory blow-up) shows as a step in the series. The scenario is
// pinned — flags exist for local experiments, but the tracked numbers come
// from the defaults.
//
//   ./bench_autoscale --out=BENCH_autoscale.json
#include <chrono>
#include <string>
#include <vector>

#include "common/figure_harness.hpp"
#include "sched/hfp.hpp"
#include "serve/observed_run.hpp"
#include "serve/serve_engine.hpp"
#include "util/flags.hpp"
#include "workloads/matmul2d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "bench_autoscale: tracked perf baseline — one pinned autoscaled "
      "serving run, emitting events/sec and peak RSS as JSON");
  flags.define_string("out", "BENCH_autoscale.json", "output JSON path")
      .define_int("jobs", 120, "jobs in the burst", /*min_value=*/1)
      .define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("gpus", 8, "GPUs (spread over --nodes)", /*min_value=*/1)
      .define_int("nodes", 4, "cluster nodes")
      .define_int("repeat", 200,
                  "timed repetitions (~0.5 s in all); fastest wall time wins",
                  /*min_value=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n"))}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("jobs"));
  std::vector<serve::JobSpec> jobs(num_jobs);
  for (serve::JobSpec& job : jobs) job.deadline_us = 100'000.0;

  core::Platform platform = core::make_v100_platform(
      static_cast<std::uint32_t>(flags.get_int("gpus")), 200 * core::kMB);
  platform.num_nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  platform.host_memory_bytes = 800 * core::kMB;

  // One run of the pinned scenario, timed from the engine's start.
  const auto timed_run = [&] {
    serve::ServeConfig config;
    config.arrival.mode = serve::ArrivalMode::kPoisson;
    config.arrival.rate_jobs_per_s = 500.0;
    config.arrival.seed = 42;
    config.admission.max_jobs_in_flight = 6;
    config.admission.max_queue_depth = 6;
    config.engine.seed = 42;
    config.engine.initial_active_nodes = 1;
    config.autoscale.enabled = true;
    config.autoscale.scale_out_queue = 2;
    config.autoscale.check_interval_us = 10'000.0;
    config.autoscale.cooldown_us = 50'000.0;

    sched::HfpScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, platform, scheduler, config);
    const auto start = std::chrono::steady_clock::now();
    (void)serve::run_observed(engine, {.context = "bench_autoscale"});
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return bench::GateRun{engine.engine().event_queue().events_processed(),
                          wall_s};
  };
  return bench::run_gate("autoscale", flags.get_int("repeat"),
                         flags.get_string("out"), timed_run);
}
