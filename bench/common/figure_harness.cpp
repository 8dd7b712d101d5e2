#include "common/figure_harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "analysis/bounds.hpp"
#include "analysis/trace_export.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "sched/hmetis_r.hpp"
#include "sim/engine.hpp"
#include "sim/engine_guard.hpp"
#include "sim/errors.hpp"
#include "sim/fault_injector.hpp"
#include "sim/platform_flags.hpp"
#include "sim/run_report.hpp"
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

  // The Chrome trace captures one run: the sweep's last (point, scheduler)
  // combination that is not skipped by a working-set bound.
  constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t trace_point = kNone;
  std::size_t trace_spec = kNone;
  if (!config.chrome_trace_path.empty()) {
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

  // Engine failures (deadlock, budget, fault-plan rejection) from possibly
  // parallel sweep workers: remember the first, report after the join.
  std::atomic<bool> engine_failed{false};
  std::mutex failure_mutex;
  std::string failure_message;

  auto run_point = [&](std::size_t index) {
    const WorkloadPoint& point = points[index];
    PointResult& result = results[index];
    const core::TaskGraph graph = point.make();
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
            rep == 0 && (!config.run_report_path.empty() || wants_trace);
        std::unique_ptr<sim::RunReportCollector> collector;
        if (observe) {
          sim::RunReportCollector::Options collector_options;
          char context[96];
          std::snprintf(context, sizeof context, "%s ws=%gMB",
                        config.figure.c_str(), point.working_set_mb);
          collector_options.context = context;
          collector_options.collect_trace = wants_trace;
          collector = std::make_unique<sim::RunReportCollector>(
              std::move(collector_options));
          engine.add_inspector(collector.get());
        }
        core::RunMetrics metrics;
        try {
          metrics = engine.run();
        } catch (const sim::EngineError& error) {
          if (!engine_failed.exchange(true)) {
            const std::lock_guard<std::mutex> lock(failure_mutex);
            failure_message = std::string(spec.label) + " at ws=" +
                              std::to_string(point.working_set_mb) + "MB: " +
                              error.what();
          }
          return;  // abandon this point; the sweep exits after the join
        }
        if (observe) {
          if (!config.run_report_path.empty()) {
            result.reports.push_back(collector->report());
          }
          if (wants_trace &&
              !analysis::export_chrome_trace(graph, config.platform,
                                             collector->trace(),
                                             config.chrome_trace_path)) {
            std::fprintf(stderr, "failed to write chrome trace to %s\n",
                         config.chrome_trace_path.c_str());
          }
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

  if (engine_failed.load()) {
    std::fprintf(stderr, "engine failure: %s\n", failure_message.c_str());
    std::exit(3);
  }

  for (const PointResult& result : results) {
    csv.comment(result.comment);
    for (const auto& row : result.rows) csv.row(row);
  }

  if (!config.run_report_path.empty()) {
    std::vector<sim::RunReport> reports;
    for (PointResult& result : results) {
      for (sim::RunReport& report : result.reports) {
        reports.push_back(std::move(report));
      }
    }
    if (!sim::write_run_reports(reports, config.figure + ": " + config.title,
                                config.run_report_path)) {
      std::fprintf(stderr, "failed to write run report to %s\n",
                   config.run_report_path.c_str());
    }
  }
}

RunObserver::RunObserver(const FigureConfig& config)
    : figure_(config.figure),
      title_(config.title),
      run_report_path_(config.run_report_path),
      chrome_trace_path_(config.chrome_trace_path) {}

RunObserver::~RunObserver() { flush(); }

core::RunMetrics RunObserver::run(sim::RuntimeEngine& engine,
                                  const core::TaskGraph& graph,
                                  const std::string& label) {
  if (run_report_path_.empty() && chrome_trace_path_.empty()) {
    return sim::run_engine_or_exit(engine, label);
  }
  sim::RunReportCollector::Options options;
  options.context = figure_ + " " + label;
  options.collect_trace = !chrome_trace_path_.empty();
  sim::RunReportCollector collector(std::move(options));
  engine.add_inspector(&collector);
  core::RunMetrics metrics = sim::run_engine_or_exit(engine, label);
  if (!run_report_path_.empty()) reports_.push_back(collector.report());
  // Rewritten per observed run: the last run wins, like run_figure.
  if (!chrome_trace_path_.empty() &&
      !analysis::export_chrome_trace(graph, engine.platform(),
                                     collector.trace(), chrome_trace_path_)) {
    std::fprintf(stderr, "failed to write chrome trace to %s\n",
                 chrome_trace_path_.c_str());
  }
  return metrics;
}

void RunObserver::flush() {
  if (flushed_ || run_report_path_.empty()) return;
  flushed_ = true;
  if (!write_run_reports(reports_, figure_ + ": " + title_,
                         run_report_path_)) {
    std::fprintf(stderr, "failed to write run report to %s\n",
                 run_report_path_.c_str());
  }
}

void add_standard_flags(util::Flags& flags, std::uint32_t default_gpus,
                        std::int64_t default_mem_mb) {
  sim::add_platform_flags(flags, default_gpus, default_mem_mb);
  flags.define_int("reps", 1, "repetitions averaged per point")
      .define_int("seed", 42, "base RNG seed")
      .define_string("out", "", "CSV output path (default: stdout)")
      .define_bool("full", false,
                   "sweep the paper's full working-set range (slower)")
      .define_int("jobs", 1,
                  "worker threads for the sweep (only used when no curve "
                  "charges scheduler wall time)")
      .define_string("run-report", "",
                     "write a JSON run report (one entry per point/scheduler "
                     "run) to this path")
      .define_string("chrome-trace", "",
                     "write a chrome://tracing timeline of the last run to "
                     "this path")
      .define_double("checkpoint-interval", 0.0,
                     "checkpoint task progress every N simulated us of "
                     "compute (0 = off)")
      .define_double("checkpoint-fraction", 0.0,
                     "checkpoint task progress every given fraction of each "
                     "task (0 = off; ignored when --checkpoint-interval is "
                     "set)")
      .define_bool("replicate-hot", false,
                   "keep a second replica of hot shared data on another GPU "
                   "while the fault plan threatens GPU losses");
}

FigureConfig config_from_flags(const util::Flags& flags, std::string figure,
                               std::string title) {
  FigureConfig config;
  config.figure = std::move(figure);
  config.title = std::move(title);
  config.platform = sim::platform_from_flags(flags);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.repetitions = static_cast<std::uint32_t>(flags.get_int("reps"));
  config.output_path = flags.get_string("out");
  config.jobs = static_cast<std::uint32_t>(flags.get_int("jobs"));
  config.run_report_path = flags.get_string("run-report");
  config.chrome_trace_path = flags.get_string("chrome-trace");
  if (auto plan = sim::fault_plan_from_flags(flags)) {
    config.fault_plan = std::move(*plan);
  }
  config.checkpoint_interval_us = flags.get_double("checkpoint-interval");
  config.checkpoint_fraction = flags.get_double("checkpoint-fraction");
  config.replicate_hot = flags.get_bool("replicate-hot");
  return config;
}

}  // namespace mg::bench
