#include "common/figure_harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>

#include "analysis/bounds.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"
#include "sim/engine.hpp"
#include "sim/engine_guard.hpp"
#include "sim/errors.hpp"
#include "sim/fault_injector.hpp"
#include "sim/platform_flags.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace mg::bench {

SchedulerSpec eager_spec() {
  return {"EAGER", [] { return std::make_unique<sched::EagerScheduler>(); }};
}

SchedulerSpec dmdar_spec() {
  return {"DMDAR", [] { return std::make_unique<sched::DmdaScheduler>(); }};
}

SchedulerSpec hmetis_spec(bool with_partition_time,
                          double max_working_set_mb) {
  SchedulerSpec spec;
  spec.label = with_partition_time ? "hMETIS+R" : "hMETIS+R no part. time";
  spec.factory = [] { return std::make_unique<sched::HmetisScheduler>(); };
  spec.account_sched_cost = with_partition_time;
  spec.max_working_set_mb = max_working_set_mb;
  return spec;
}

SchedulerSpec mhfp_spec(bool with_sched_time, double max_working_set_mb) {
  SchedulerSpec spec;
  spec.label = with_sched_time ? "mHFP" : "mHFP no sched. time";
  spec.factory = [] { return std::make_unique<sched::HfpScheduler>(); };
  spec.account_sched_cost = with_sched_time;
  spec.max_working_set_mb = max_working_set_mb;
  return spec;
}

SchedulerSpec darts_spec(const core::DartsOptions& options,
                         bool with_sched_time) {
  SchedulerSpec spec;
  spec.label = core::darts_variant_name(options);
  spec.factory = [options] {
    return std::make_unique<core::DartsScheduler>(options);
  };
  spec.account_sched_cost = with_sched_time;
  return spec;
}

void run_figure(const FigureConfig& config,
                const std::vector<WorkloadPoint>& points,
                const std::vector<SchedulerSpec>& schedulers) {
  util::CsvWriter csv(
      {"working_set_mb", "scheduler", "gflops", "transfers_mb", "loads",
       "evictions", "makespan_ms", "sched_prepare_ms", "sched_pop_ms"},
      config.output_path);
  csv.comment(config.figure + ": " + config.title);
  char line[160];
  std::snprintf(line, sizeof line,
                "platform: %u GPUs x %.0f MB, %.0f GFlop/s each, %.1f GB/s bus",
                config.platform.num_gpus,
                static_cast<double>(config.platform.gpu_memory_bytes) / 1e6,
                config.platform.gpu_gflops,
                config.platform.bus_bandwidth_bytes_per_s / 1e9);
  csv.comment(line);
  std::snprintf(line, sizeof line, "gflops_max: %.0f",
                analysis::gflops_max(config.platform));
  csv.comment(line);
  std::snprintf(line, sizeof line,
                "threshold_both_fit_mb: %.0f threshold_one_fits_mb: %.0f",
                static_cast<double>(
                    analysis::threshold_both_matrices_fit(config.platform)) /
                    1e6,
                static_cast<double>(
                    analysis::threshold_one_matrix_fits(config.platform)) /
                    1e6);
  csv.comment(line);

  // Per-point results, computed possibly in parallel, emitted in order.
  struct PointResult {
    std::string comment;
    std::vector<std::vector<util::CsvCell>> rows;
    std::vector<sim::RunReport> reports;
  };
  std::vector<PointResult> results(points.size());
  serve::RunOutputs outputs(config.run_report_path, config.chrome_trace_path);

  // The Chrome trace captures one run: the sweep's last (point, scheduler)
  // combination that is not skipped by a working-set bound.
  constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t trace_point = kNone;
  std::size_t trace_spec = kNone;
  if (outputs.tracing()) {
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      for (std::size_t si = 0; si < schedulers.size(); ++si) {
        if (points[pi].working_set_mb <= schedulers[si].max_working_set_mb &&
            points[pi].working_set_mb >= schedulers[si].min_working_set_mb) {
          trace_point = pi;
          trace_spec = si;
        }
      }
    }
  }

  // The first failure of possibly parallel sweep workers, reported after
  // the join: a task larger than --mem-mb (exit 2; the check prints why) or
  // an engine failure (deadlock, budget, fault-plan rejection; exit 3).
  std::mutex failure_mutex;
  int failure_status = 0;
  std::string failure_label;
  std::optional<sim::EngineError> engine_error;
  const auto mem_mb = static_cast<std::int64_t>(
      config.platform.gpu_memory_bytes / core::kMB);

  auto run_point = [&](std::size_t index) {
    const WorkloadPoint& point = points[index];
    PointResult& result = results[index];
    const core::TaskGraph graph = point.make();
    {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (failure_status == 0 &&
          !sim::mem_mb_holds_every_task(
              mem_mb, config.platform.gpu_memory_bytes,
              std::span<const core::TaskGraph>(&graph, 1))) {
        failure_status = 2;
      }
      if (failure_status != 0) return;
    }
    char point_line[160];
    std::snprintf(point_line, sizeof point_line,
                  "point ws=%.0fMB tasks=%u data=%u pci_limit_mb=%.0f",
                  point.working_set_mb, graph.num_tasks(), graph.num_data(),
                  analysis::pci_limit_bytes(graph, config.platform) / 1e6);
    result.comment = point_line;

    for (std::size_t spec_index = 0; spec_index < schedulers.size();
         ++spec_index) {
      const SchedulerSpec& spec = schedulers[spec_index];
      if (point.working_set_mb > spec.max_working_set_mb ||
          point.working_set_mb < spec.min_working_set_mb) {
        continue;
      }
      const bool wants_trace =
          index == trace_point && spec_index == trace_spec;

      double gflops = 0.0;
      double transfers_mb = 0.0;
      double loads = 0.0;
      double evictions = 0.0;
      double makespan_ms = 0.0;
      double prepare_ms = 0.0;
      double pop_ms = 0.0;
      const std::uint32_t reps = std::max(1u, config.repetitions);
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        auto scheduler = spec.factory();
        sim::EngineConfig engine_config;
        engine_config.seed = config.seed + rep;
        engine_config.account_scheduler_cost = spec.account_sched_cost;
        engine_config.hints_may_evict = spec.hints_may_evict;
        engine_config.checkpoint_interval_us = config.checkpoint_interval_us;
        engine_config.checkpoint_fraction = config.checkpoint_fraction;
        engine_config.replicate_hot = config.replicate_hot;
        sim::RuntimeEngine engine(graph, config.platform, *scheduler,
                                  engine_config);
        std::unique_ptr<sim::FaultInjector> injector;
        if (!config.fault_plan.empty()) {
          injector = std::make_unique<sim::FaultInjector>(config.fault_plan);
          engine.set_fault_injector(injector.get());
        }
        // Observability rides on the first repetition only: one report per
        // (point, scheduler) row, one Chrome trace per sweep.
        const bool observe =
            rep == 0 && (outputs.reporting() || wants_trace);
        char context[96];
        std::snprintf(context, sizeof context, "%s ws=%gMB",
                      config.figure.c_str(), point.working_set_mb);
        const serve::RunInspectors inspectors(
            engine, {.collect = observe,
                     .trace = observe && wants_trace,
                     .context = context});
        core::RunMetrics metrics;
        try {
          metrics = engine.run();
        } catch (const sim::EngineError& error) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (failure_status == 0) {
            failure_status = 3;
            failure_label = spec.label + " at ws=" +
                            std::to_string(point.working_set_mb) + "MB";
            engine_error = error;
          }
          return;  // abandon this point; the sweep exits after the join
        }
        if (observe && outputs.reporting()) {
          result.reports.push_back(inspectors.finish());
        }
        // Only this run keeps a trace: no other worker touches `outputs`.
        if (observe && wants_trace) {
          outputs.keep_trace(graph, config.platform, inspectors.trace());
        }
        gflops += metrics.achieved_gflops();
        transfers_mb += metrics.transfers_mb();
        loads += static_cast<double>(metrics.total_loads());
        evictions += static_cast<double>(metrics.total_evictions());
        makespan_ms += metrics.wall_makespan_us() / 1e3;
        prepare_ms += metrics.scheduler_prepare_us / 1e3;
        pop_ms += metrics.scheduler_pop_us / 1e3;
      }
      const double inv = 1.0 / static_cast<double>(reps);
      result.rows.push_back({point.working_set_mb, spec.label, gflops * inv,
                             transfers_mb * inv, loads * inv, evictions * inv,
                             makespan_ms * inv, prepare_ms * inv,
                             pop_ms * inv});
    }
  };

  // Wall-clock scheduler-cost measurements need an unloaded machine: only
  // parallelize the sweep when no curve charges scheduler time.
  const bool any_cost_accounted =
      std::any_of(schedulers.begin(), schedulers.end(),
                  [](const SchedulerSpec& spec) {
                    return spec.account_sched_cost;
                  });
  if (config.jobs > 1 && !any_cost_accounted) {
    util::ThreadPool pool(config.jobs);
    pool.parallel_for(points.size(), run_point);
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) run_point(i);
  }

  if (engine_error) sim::exit_engine_failure(failure_label, *engine_error);
  if (failure_status != 0) std::exit(failure_status);

  for (PointResult& result : results) {
    csv.comment(result.comment);
    for (const auto& row : result.rows) csv.row(row);
    for (sim::RunReport& report : result.reports) {
      outputs.keep(std::move(report));
    }
  }
  outputs.write(config.figure + ": " + config.title);
}

RunObserver::RunObserver(const FigureConfig& config)
    : figure_(config.figure),
      title_(config.title),
      outputs_(config.run_report_path, config.chrome_trace_path) {}

RunObserver::~RunObserver() { outputs_.write(figure_ + ": " + title_); }

core::RunMetrics RunObserver::run(sim::RuntimeEngine& engine,
                                  const core::TaskGraph& graph,
                                  const std::string& label, bool check) {
  const std::string context = figure_ + " " + label;
  const bool observe = outputs_.reporting() || outputs_.tracing();
  const serve::RunInspectors inspectors(
      engine, {.check = check,
               .collect = observe,
               .trace = outputs_.tracing(),
               .context = context});
  const core::RunMetrics metrics = sim::run_engine_or_exit(engine, context);
  outputs_.keep(inspectors.finish());
  outputs_.keep_trace(graph, engine.platform(), inspectors.trace());
  return metrics;
}

void add_standard_flags(util::Flags& flags, unsigned blocks,
                        std::uint32_t default_gpus,
                        std::int64_t default_mem_mb) {
  sim::add_platform_flags(flags, default_gpus, default_mem_mb);
  flags.define_int("seed", 42, "base RNG seed")
      .define_string("out", "", "CSV output path (default: stdout)")
      .define_string("run-report", "",
                     "write a JSON run report (one entry per point/scheduler "
                     "run) to this path");
  if ((blocks & kFullFlag) != 0) {
    flags.define_bool("full", false,
                      "sweep the paper's full working-set range (slower)");
  }
  if ((blocks & kTraceFlag) != 0) {
    flags.define_string("chrome-trace", "",
                        "write a chrome://tracing timeline of the last run "
                        "to this path");
  }
  if ((blocks & kSweepFlags) != 0) {
    flags.define_int("reps", 1, "repetitions averaged per point")
        .define_int("jobs", 1,
                    "worker threads for the sweep (only used when no curve "
                    "charges scheduler wall time)");
  }
  if ((blocks & kFaultPlanFlag) != 0) sim::add_fault_plan_flag(flags);
  if ((blocks & kRecoveryFlags) != 0) sim::add_recovery_flags(flags);
}

FigureConfig config_from_flags(const util::Flags& flags, std::string figure,
                               std::string title) {
  FigureConfig config;
  config.figure = std::move(figure);
  config.title = std::move(title);
  config.platform = sim::platform_from_flags(flags);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.output_path = flags.get_string("out");
  config.run_report_path = flags.get_string("run-report");
  if (flags.has("chrome-trace")) {
    config.chrome_trace_path = flags.get_string("chrome-trace");
  }
  if (flags.has("reps")) {
    config.repetitions = static_cast<std::uint32_t>(flags.get_int("reps"));
    config.jobs = static_cast<std::uint32_t>(flags.get_int("jobs"));
  }
  if (flags.has("fault-plan")) {
    if (auto plan = sim::fault_plan_from_flags(flags)) {
      config.fault_plan = std::move(*plan);
    }
  }
  if (flags.has("replicate-hot")) {
    config.checkpoint_interval_us = flags.get_double("checkpoint-interval");
    config.checkpoint_fraction = flags.get_double("checkpoint-fraction");
    config.replicate_hot = flags.get_bool("replicate-hot");
  }
  return config;
}

namespace {

/// Peak resident set in MB from /proc/self/status (VmHWM); 0.0 where the
/// proc filesystem is unavailable (non-Linux).
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kb);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

}  // namespace

int run_gate(const std::string& name, std::int64_t repeat,
             const std::string& path,
             const std::function<GateRun()>& timed_run,
             const char* count_key, const char* count_label) {
  GateRun best;
  for (std::int64_t rep = 0; rep < repeat; ++rep) {
    const GateRun run = timed_run();
    if (rep == 0) {
      best = run;
    } else if (run.events != best.events) {
      std::fprintf(stderr,
                   "bench_%s: nondeterministic event count (%llu vs %llu)\n",
                   name.c_str(), static_cast<unsigned long long>(best.events),
                   static_cast<unsigned long long>(run.events));
      return 1;
    } else {
      best.wall_s = std::min(best.wall_s, run.wall_s);
    }
  }

  const double events_per_sec =
      best.wall_s > 0.0 ? static_cast<double>(best.events) / best.wall_s
                        : 0.0;
  const double rss_mb = peak_rss_mb();
  std::string count_json;
  std::string count_text;
  if (count_key != nullptr) {
    count_json = ",\"" + std::string(count_key) +
                 "\":" + std::to_string(best.count);
    count_text = std::to_string(best.count) + " " + count_label + ", ";
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"%s\",\"events\":%llu,"
               "\"wall_s\":%.6f,\"events_per_sec\":%.0f,"
               "\"peak_rss_mb\":%.1f%s}\n",
               name.c_str(), static_cast<unsigned long long>(best.events),
               best.wall_s, events_per_sec, rss_mb, count_json.c_str());
  std::fclose(out);
  std::printf("bench_%s: %llu events in %.3f s (%.0f events/s), "
              "%speak RSS %.1f MB -> %s\n",
              name.c_str(), static_cast<unsigned long long>(best.events),
              best.wall_s, events_per_sec, count_text.c_str(), rss_mb,
              path.c_str());
  return 0;
}

OccupancySummary summarize_occupancy(
    const sim::RunReport::Occupancy& occupancy) {
  OccupancySummary summary;
  for (const sim::RunReport::Occupancy::Gpu& gpu : occupancy.per_gpu) {
    summary.mean_occupancy += gpu.mean_occupancy;
    summary.peak_warps = std::max(summary.peak_warps, gpu.peak_warps);
  }
  if (!occupancy.per_gpu.empty()) {
    summary.mean_occupancy /= static_cast<double>(occupancy.per_gpu.size());
  }
  return summary;
}

}  // namespace mg::bench
