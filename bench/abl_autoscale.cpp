// Ablation: elastic autoscaling vs. fixed topology under an arrival spike.
//
// Streams a Poisson burst of matmul jobs through three topology arms on the
// same multi-node platform with a bounded admission queue:
//   fixed-small  — only the first node serves, autoscaler off (the
//                  capacity you are stuck with if you cannot scale);
//   fixed-large  — every node serves from t=0 (the over-provisioned upper
//                  bound);
//   autoscaled   — starts like fixed-small, and the autoscaler absorbs the
//                  spike by joining nodes (and drains them again when the
//                  queue empties out).
// The claim under test (--check): the autoscaled arm sheds fewer jobs than
// fixed-small without missing more deadlines, and its planned drains lose
// zero task progress (no unplanned reclaims; the InvariantChecker re-proves
// the drain/join protocol event by event).
//
//   ./abl_autoscale --gpus=4 --nodes=2 --rate=400 --num-jobs=80 --check
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/figure_harness.hpp"
#include "sched/hfp.hpp"
#include "serve/autoscale_flags.hpp"
#include "serve/observed_run.hpp"
#include "serve/serve_engine.hpp"
#include "sim/run_report.hpp"
#include "util/csv.hpp"
#include "workloads/matmul2d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "Autoscaling ablation: a Poisson spike absorbed by scale-out vs. "
      "fixed topologies (sheds, deadline misses, drain/join counters)");
  bench::add_standard_flags(flags, bench::kBaseFlags, /*default_gpus=*/4);
  flags.define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("num-jobs", 80, "jobs in the burst", /*min_value=*/1)
      .define_double("rate", 400.0, "Poisson arrival rate (jobs/s)",
                     {.min_exclusive = true})
      .define_double("deadline-ms", 80.0, "per-job latency SLO in ms")
      .define_int("max-in-flight", 4,
                  "admission bound on concurrently in-flight jobs")
      .define_int("max-queue", 4,
                  "admission queue bound; jobs past it are shed")
      .define_bool("check", false,
                   "assert the headline claim: autoscaled sheds fewer jobs "
                   "than fixed-small at no worse deadline-miss rate, with "
                   "zero lost progress");
  serve::add_autoscale_flags(flags);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_autoscale",
      "elastic autoscaling vs. fixed topology under an arrival spike");
  if (!config.platform.is_cluster()) {
    std::fprintf(stderr, "bad value for --nodes: '%u' (abl_autoscale needs "
                 "at least 2)\n",
                 config.platform.num_nodes);
    return 2;
  }

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n"))}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("num-jobs"));
  std::vector<serve::JobSpec> jobs(num_jobs);
  for (serve::JobSpec& job : jobs) {
    job.deadline_us = flags.get_double("deadline-ms") * 1e3;
  }

  util::CsvWriter csv(
      {"arm", "jobs_submitted", "jobs_completed", "jobs_shed",
       "deadline_miss_rate", "throughput_jobs_per_s", "p95_ms",
       "scale_out_events", "scale_in_events", "nodes_joined", "nodes_drained",
       "tasks_drained", "migrated_mb", "warm_fills", "tasks_reclaimed"},
      config.output_path);
  char line[160];
  std::snprintf(line, sizeof line,
                "platform: %u GPUs over %u nodes; %u jobs at %g jobs/s, "
                "queue bound %lld",
                config.platform.num_gpus, config.platform.num_nodes, num_jobs,
                flags.get_double("rate"),
                static_cast<long long>(flags.get_int("max-queue")));
  csv.comment(line);

  serve::RunOutputs outputs(config.run_report_path);
  // One arm: a full streamed run on `initial_nodes`, autoscaler on/off.
  auto run_arm = [&](const std::string& arm, std::uint32_t initial_nodes,
                     bool autoscale) {
    serve::ServeConfig serve_config;
    serve_config.arrival.mode = serve::ArrivalMode::kPoisson;
    serve_config.arrival.rate_jobs_per_s = flags.get_double("rate");
    serve_config.arrival.seed = config.seed;
    serve_config.admission.max_jobs_in_flight =
        static_cast<std::uint32_t>(flags.get_int("max-in-flight"));
    serve_config.admission.max_queue_depth =
        static_cast<std::uint32_t>(flags.get_int("max-queue"));
    serve_config.engine.seed = config.seed;
    serve_config.engine.initial_active_nodes = initial_nodes;
    if (autoscale) {
      serve_config.autoscale =
          serve::autoscale_from_flags(flags, config.platform);
      serve_config.autoscale.enabled = true;
    }

    // mHFP: a WorkQueueScheduler, so the arm also exercises the
    // notify_node_draining/added queue rebalance path.
    sched::HfpScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, config.platform, scheduler,
                              serve_config);
    auto run = serve::run_observed(engine,
                                   {.check = true,
                                    .collect = true,
                                    .context = "abl_autoscale " + arm});

    const sim::RunReport::Serving& serving = run.result.serving;
    const sim::RunReport::Autoscaling& scaling = run.report.autoscaling;
    csv.row({arm, static_cast<std::int64_t>(serving.jobs_submitted),
             static_cast<std::int64_t>(serving.jobs_completed),
             static_cast<std::int64_t>(serving.jobs_shed),
             serving.deadline_miss_rate, serving.throughput_jobs_per_s,
             serving.latency_p95_us / 1e3,
             static_cast<std::int64_t>(scaling.scale_out_events),
             static_cast<std::int64_t>(scaling.scale_in_events),
             static_cast<std::int64_t>(scaling.nodes_joined),
             static_cast<std::int64_t>(scaling.nodes_drained),
             static_cast<std::int64_t>(scaling.tasks_drained),
             static_cast<double>(scaling.migrated_bytes) / 1e6,
             static_cast<std::int64_t>(scaling.warm_fills),
             static_cast<std::int64_t>(
                 run.result.metrics.faults.tasks_reclaimed)});
    outputs.keep(std::move(run.report));
    return run.result;
  };

  const serve::ServeResult fixed_small = run_arm("fixed-small", 1, false);
  run_arm("fixed-large", config.platform.num_nodes, false);
  const serve::ServeResult autoscaled = run_arm("autoscaled", 1, true);
  outputs.write("abl_autoscale: " + config.title);

  if (flags.get_bool("check")) {
    const auto& small = fixed_small.serving;
    const auto& elastic = autoscaled.serving;
    bool ok = true;
    if (elastic.jobs_shed >= small.jobs_shed) {
      std::fprintf(stderr,
                   "CLAIM FAILED: autoscaled shed %u jobs, fixed-small %u "
                   "(expected fewer)\n",
                   elastic.jobs_shed, small.jobs_shed);
      ok = false;
    }
    if (elastic.deadline_miss_rate > small.deadline_miss_rate) {
      std::fprintf(stderr,
                   "CLAIM FAILED: autoscaled deadline-miss rate %.3f above "
                   "fixed-small %.3f\n",
                   elastic.deadline_miss_rate, small.deadline_miss_rate);
      ok = false;
    }
    if (autoscaled.scale_out_events == 0) {
      std::fprintf(stderr, "CLAIM FAILED: the autoscaler never scaled out\n");
      ok = false;
    }
    if (autoscaled.metrics.faults.tasks_reclaimed != 0) {
      std::fprintf(stderr,
                   "CLAIM FAILED: planned topology change reclaimed %llu "
                   "task(s) — drains must lose zero progress\n",
                   static_cast<unsigned long long>(
                       autoscaled.metrics.faults.tasks_reclaimed));
      ok = false;
    }
    if (!ok) return 1;
    std::printf("claim OK: autoscaled shed %u < fixed-small %u, miss rate "
                "%.3f <= %.3f, %u scale-out(s), zero reclaims\n",
                elastic.jobs_shed, small.jobs_shed,
                elastic.deadline_miss_rate, small.deadline_miss_rate,
                autoscaled.scale_out_events);
  }
  return 0;
}
