// fig_throughput — serving throughput and tail latency across arrival rates.
//
// Streams a sequence of matmul jobs through the serving loop at increasing
// Poisson arrival rates (sweeping into saturation) for each scheduler and
// reports, per (rate, scheduler): achieved throughput, latency
// p50/p95/p99, deadline-miss rate, shed count, host-bus loads and the
// cross-job reuse the data-aware policies extract from inter-job sharing.
// The paper's batch figures ask "how fast is one graph"; this asks the
// serving question: how many graphs per second before the tail collapses —
// and how much of DARTS/DMDAR's advantage survives when the working set is
// shared *across* jobs instead of within one.
//
//   ./fig_throughput --gpus=2 --n=8 --num-jobs=60 --rates=25,50,100,200
//   ./fig_throughput --arrival=closed-loop --concurrency=6
//   ./fig_throughput --rates=50 --run-report=serving.json
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/figure_harness.hpp"
#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "serve/autoscale_flags.hpp"
#include "serve/observed_run.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine_guard.hpp"
#include "sim/fault_injector.hpp"
#include "sim/run_report.hpp"
#include "util/csv.hpp"
#include "workloads/matmul2d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "fig_throughput: streamed serving throughput/latency across arrival "
      "rates.\nschedulers: EAGER, DMDAR, DARTS+LUF, mHFP");
  // 150 MB against a 224 MB template working set: tight enough that the
  // eviction policy decides how much of the cross-job reuse survives.
  bench::add_standard_flags(flags, bench::kFaultPlanFlag | bench::kRecoveryFlags,
                            /*default_gpus=*/2, /*default_mem_mb=*/150);
  flags.define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("num-jobs", 60, "jobs streamed per run", /*min_value=*/1)
      .define_list("rates", "25,50,100,200",
                   "comma-separated Poisson arrival rates (jobs/s)",
                   {.min_exclusive = true})
      .define_string("arrival", "poisson", "poisson | closed-loop")
      .define_int("concurrency", 4, "closed-loop client count")
      .define_double("deadline-ms", 0.0,
                     "per-job latency SLO in ms (0 = no deadlines)")
      .define_int("max-in-flight", 8,
                  "admission bound on concurrently in-flight jobs (the "
                  "footprint sum over-counts shared data, so bound jobs, "
                  "not bytes)")
      .define_int("max-queue", 0,
                  "admission queue bound (jobs past it are shed; 0 = "
                  "unbounded)")
      .define_bool("no-share", false,
                   "ablation: give every job private data (no cross-job "
                   "reuse possible)")
      .define_bool("check", false,
                   "run the online InvariantChecker over every streamed run")
      .define_double("occupancy-threshold", 0.0,
                     "GPU-sharing admission threshold (fraction of the warp "
                     "budget; 0 = exclusive ownership, byte-identical "
                     "legacy behaviour)")
      .define_int("occupancy-warps", 0,
                  "explicit warp footprint per job task (0 = derive from "
                  "the matmul tile geometry)")
      .define_int("tiers", 0,
                  "SLO tiers (0 = no tiering, byte-identical legacy "
                  "behaviour). With N > 0 jobs cycle through priorities "
                  "0..N-1 and the CSV grows per-tier p50/p95/p99 columns");
  serve::add_autoscale_flags(flags);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  bench::FigureConfig config = bench::config_from_flags(
      flags, "fig_throughput",
      "serving throughput and tail latency vs. arrival rate");

  const auto arrival = serve::parse_arrival_mode(flags.get_string("arrival"));
  if (!arrival.has_value()) {
    std::fprintf(stderr, "bad value for --arrival: '%s'\n",
                 flags.get_string("arrival").c_str());
    return 2;
  }
  const cluster::AutoscalerConfig autoscale =
      serve::autoscale_from_flags(flags, config.platform);
  const std::vector<double>& rates = flags.get_list("rates");

  const double occupancy_threshold = flags.get_double("occupancy-threshold");
  if (occupancy_threshold > 0.0 && (config.checkpoint_interval_us > 0.0 ||
                                    config.checkpoint_fraction > 0.0)) {
    std::fprintf(stderr,
                 "checkpointing cannot be combined with GPU sharing "
                 "(--occupancy-threshold > 0)\n");
    return 2;
  }
  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n")),
       .derive_warps = occupancy_threshold > 0.0}));
  if (!sim::mem_mb_holds_every_task(flags.get_int("mem-mb"),
                                    config.platform.gpu_memory_bytes,
                                    templates)) {
    return 2;
  }
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("num-jobs"));
  const std::uint32_t num_tiers =
      static_cast<std::uint32_t>(flags.get_int("tiers"));
  std::vector<serve::JobSpec> jobs(num_jobs);
  for (std::uint32_t j = 0; j < num_jobs; ++j) {
    jobs[j].deadline_us = flags.get_double("deadline-ms") * 1e3;
    jobs[j].warps = static_cast<std::uint32_t>(flags.get_int("occupancy-warps"));
    if (num_tiers > 0) jobs[j].priority = j % num_tiers;
  }

  struct Spec {
    std::string label;
    std::function<std::unique_ptr<core::Scheduler>()> factory;
  };
  const std::vector<Spec> specs = {
      {"EAGER", [] { return std::make_unique<sched::EagerScheduler>(); }},
      {"DMDAR", [] { return std::make_unique<sched::DmdaScheduler>(); }},
      {"DARTS+LUF", [] { return std::make_unique<core::DartsScheduler>(); }},
      {"mHFP", [] { return std::make_unique<sched::HfpScheduler>(); }},
  };

  std::vector<std::string> columns = {
      "rate_jobs_per_s", "scheduler", "throughput_jobs_per_s", "p50_ms",
      "p95_ms", "p99_ms", "deadline_miss_rate", "jobs_shed", "loads",
      "transfers_mb", "reuse_mb", "peak_in_flight", "mean_occupancy",
      "peak_warps", "co_run_pairs", "occ_rejections"};
  for (std::uint32_t t = 0; t < num_tiers; ++t) {
    const std::string prefix = "t" + std::to_string(t) + "_";
    columns.push_back(prefix + "p50_ms");
    columns.push_back(prefix + "p95_ms");
    columns.push_back(prefix + "p99_ms");
  }
  util::CsvWriter csv(columns, config.output_path);
  csv.comment("fig_throughput: " + std::string(config.title));
  char line[160];
  std::snprintf(line, sizeof line,
                "platform: %u GPUs x %.0f MB; template n=%lld (%u tasks), "
                "%u jobs, arrival=%s%s",
                config.platform.num_gpus,
                static_cast<double>(config.platform.gpu_memory_bytes) / 1e6,
                static_cast<long long>(flags.get_int("n")),
                templates[0].num_tasks(), num_jobs,
                flags.get_string("arrival").c_str(),
                flags.get_bool("no-share") ? " (sharing ablated)" : "");
  csv.comment(line);

  serve::RunOutputs outputs(config.run_report_path);
  for (const double rate : rates) {
    for (const Spec& spec : specs) {
      serve::ServeConfig serve_config;
      serve_config.arrival.mode = *arrival;
      serve_config.arrival.rate_jobs_per_s = rate;
      serve_config.arrival.concurrency =
          static_cast<std::uint32_t>(flags.get_int("concurrency"));
      serve_config.arrival.seed = config.seed;
      serve_config.admission.max_jobs_in_flight =
          static_cast<std::uint32_t>(flags.get_int("max-in-flight"));
      serve_config.admission.max_queue_depth =
          static_cast<std::uint32_t>(flags.get_int("max-queue"));
      serve_config.share_data = !flags.get_bool("no-share");
      serve_config.engine.seed = config.seed;
      serve_config.engine.occupancy_threshold = occupancy_threshold;
      serve_config.engine.checkpoint_interval_us =
          config.checkpoint_interval_us;
      serve_config.engine.checkpoint_fraction = config.checkpoint_fraction;
      serve_config.engine.replicate_hot = config.replicate_hot;
      if (num_tiers > 0) {
        serve_config.slo.enabled = true;
        serve_config.slo.tiers = slo::TierPolicy::even(num_tiers);
      }
      serve_config.autoscale = autoscale;
      serve_config.engine.initial_active_nodes =
          serve::autoscale_initial_nodes(flags);

      auto scheduler = spec.factory();
      serve::ServeEngine engine(templates, jobs, config.platform, *scheduler,
                                serve_config);
      std::unique_ptr<sim::FaultInjector> injector;
      if (!config.fault_plan.empty()) {
        injector = std::make_unique<sim::FaultInjector>(config.fault_plan);
        engine.set_fault_injector(injector.get());
      }
      char context[96];
      std::snprintf(context, sizeof context, "fig_throughput rate=%g", rate);
      // The occupancy columns need the collector even when no run report is
      // written to disk.
      const bool collect = outputs.reporting() || occupancy_threshold > 0.0;
      auto run = serve::run_observed(engine, {.check = flags.get_bool("check"),
                                              .collect = collect,
                                              .context = context});
      const serve::ServeResult& result = run.result;
      const sim::RunReport::Occupancy& occupancy = run.report.occupancy;
      const bench::OccupancySummary summary =
          bench::summarize_occupancy(occupancy);

      const sim::RunReport::Serving& serving = result.serving;
      std::vector<util::CsvCell> cells = {
          rate, spec.label, serving.throughput_jobs_per_s,
          serving.latency_p50_us / 1e3, serving.latency_p95_us / 1e3,
          serving.latency_p99_us / 1e3, serving.deadline_miss_rate,
          static_cast<std::int64_t>(serving.jobs_shed),
          static_cast<std::int64_t>(result.metrics.total_loads()),
          result.metrics.transfers_mb(),
          static_cast<double>(serving.cross_job_reuse_bytes) / 1e6,
          static_cast<std::int64_t>(serving.peak_jobs_in_flight),
          summary.mean_occupancy,
          static_cast<std::int64_t>(summary.peak_warps),
          static_cast<std::int64_t>(occupancy.co_run_pairs),
          static_cast<std::int64_t>(occupancy.rejections)};
      for (std::uint32_t t = 0; t < num_tiers; ++t) {
        const sim::RunReport::Slo::Tier& tier = result.slo.per_tier[t];
        cells.push_back(tier.p50_us / 1e3);
        cells.push_back(tier.p95_us / 1e3);
        cells.push_back(tier.p99_us / 1e3);
      }
      csv.row(cells);
      outputs.keep(std::move(run.report));
    }
  }
  outputs.write("fig_throughput: " + config.title);
  return 0;
}
