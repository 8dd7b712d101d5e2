// bench_serve — tracked perf baseline for the SLO-tiered serving path.
//
// Runs one fixed, deterministic serving scenario with the whole SLO layer
// armed (two tiers with admission weights and a high-tier deadline,
// eviction protection for the high tier, cross-job super-task batching
// under a tight in-flight bound) and emits BENCH_serve.json: simulation
// events processed, wall seconds, events/sec, peak RSS and the fusion
// count. CI runs it every push and gates events/sec against the committed
// baseline via scripts/check_bench.py, so a slowdown in the fusion
// bookkeeping, the veto-threaded eviction scans or the tier-aware
// admission queue shows as a step in the series. The scenario is pinned —
// flags exist for local experiments, but the tracked numbers come from
// the defaults.
//
//   ./bench_serve --out=BENCH_serve.json
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
      "bench_serve: tracked perf baseline — one pinned SLO-tiered serving "
      "run with batching and eviction protection, emitting events/sec and "
      "peak RSS as JSON");
  flags.define_string("out", "BENCH_serve.json", "output JSON path")
      .define_int("jobs", 120, "jobs in the burst", /*min_value=*/1)
      .define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("gpus", 4, "GPUs", /*min_value=*/1)
      .define_int("repeat", 3, "timed repetitions; fastest wall time wins");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n"))}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("jobs"));
  std::vector<serve::JobSpec> jobs(num_jobs);
  for (std::uint32_t j = 0; j < num_jobs; ++j) jobs[j].priority = j % 2;

  core::Platform platform = core::make_v100_platform(
      static_cast<std::uint32_t>(flags.get_int("gpus")), 200 * core::kMB);

  // One run of the pinned scenario, timed from the engine's start.
  const auto timed_run = [&] {
    serve::ServeConfig config;
    config.arrival.mode = serve::ArrivalMode::kPoisson;
    config.arrival.rate_jobs_per_s = 500.0;
    config.arrival.seed = 42;
    config.admission.max_jobs_in_flight = 6;
    config.engine.seed = 42;
    config.slo.enabled = true;
    config.slo.tiers = slo::TierPolicy{
        {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
         {.min_priority = 1, .deadline_us = 80e3, .admission_weight = 4}}};
    config.slo.protect_min_priority = 1;
    config.slo.batching = true;
    config.slo.max_batch = 4;
    config.slo.marginal_compute = 0.4;

    sched::DmdaScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, platform, scheduler, config);
    const auto start = std::chrono::steady_clock::now();
    const auto run = serve::run_observed(
        engine, {.collect = true, .context = "bench_serve"});
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return bench::GateRun{engine.engine().event_queue().events_processed(),
                          wall_s, run.report.slo.jobs_fused};
  };
  return bench::run_gate("serve", flags.get_int("repeat"),
                         flags.get_string("out"), timed_run, "jobs_fused",
                         "jobs fused");
}
