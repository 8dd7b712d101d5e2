// bench_occupancy — tracked perf baseline for the GPU-sharing engine path.
//
// Runs one fixed, deterministic occupancy-sharing serving scenario (four
// GPUs, Poisson burst of warp-annotated matmul jobs co-scheduled at
// threshold 1.0) and emits BENCH_occupancy.json: simulation events
// processed, wall seconds, events/sec, peak RSS and the co-run pair count.
// CI runs it every push and uploads the JSON next to BENCH_autoscale.json,
// so a slowdown in the per-GPU running-set bookkeeping (or a memory
// blow-up in the governor) shows as a step in the series. The scenario is
// pinned — flags exist for local experiments, but the tracked numbers come
// from the defaults.
//
//   ./bench_occupancy --out=BENCH_occupancy.json
#include <chrono>
#include <string>
#include <vector>

#include "common/figure_harness.hpp"
#include "sched/dmda.hpp"
#include "serve/observed_run.hpp"
#include "serve/serve_engine.hpp"
#include "util/flags.hpp"
#include "workloads/matmul2d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "bench_occupancy: tracked perf baseline — one pinned GPU-sharing "
      "serving run, emitting events/sec and peak RSS as JSON");
  flags.define_string("out", "BENCH_occupancy.json", "output JSON path")
      .define_int("jobs", 120, "jobs in the burst", /*min_value=*/1)
      .define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("gpus", 4, "GPUs", /*min_value=*/1)
      .define_double("threshold", 1.0, "sharing admission threshold")
      .define_int("repeat", 50,
                  "timed repetitions (~0.5 s in all); fastest wall time wins",
                  /*min_value=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n")),
       .derive_warps = true}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("jobs"));
  std::vector<serve::JobSpec> jobs(num_jobs);

  core::Platform platform = core::make_v100_platform(
      static_cast<std::uint32_t>(flags.get_int("gpus")), 200 * core::kMB);

  // One run of the pinned scenario, timed from the engine's start.
  const auto timed_run = [&] {
    serve::ServeConfig config;
    config.arrival.mode = serve::ArrivalMode::kPoisson;
    config.arrival.rate_jobs_per_s = 500.0;
    config.arrival.seed = 42;
    config.admission.max_jobs_in_flight = 8;
    config.engine.seed = 42;
    config.engine.occupancy_threshold = flags.get_double("threshold");

    sched::DmdaScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, platform, scheduler, config);
    const auto start = std::chrono::steady_clock::now();
    const auto run = serve::run_observed(
        engine, {.collect = true, .context = "bench_occupancy"});
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return bench::GateRun{engine.engine().event_queue().events_processed(),
                          wall_s, run.report.occupancy.co_run_pairs};
  };
  return bench::run_gate("occupancy", flags.get_int("repeat"),
                         flags.get_string("out"), timed_run, "co_run_pairs",
                         "co-run pairs");
}
