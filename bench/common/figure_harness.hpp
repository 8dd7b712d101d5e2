// Shared code of the bench drivers: the figure harness, the observation
// step of the ablations with their own sweep loops, the flag blocks, and
// what the serving drivers and the bench_* gates share.
//
// A figure is a sweep: for each working-set point, generate the workload,
// run every scheduler spec through the simulator, and emit one CSV row per
// (point, scheduler) with the quantities the paper plots — GFlop/s and MB
// transferred — plus diagnostics and the figure's reference lines.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/darts.hpp"
#include "core/metrics.hpp"
#include "core/platform.hpp"
#include "core/scheduler.hpp"
#include "core/task_graph.hpp"
#include "serve/observed_run.hpp"
#include "sim/fault_plan.hpp"
#include "sim/run_report.hpp"
#include "util/flags.hpp"

namespace mg::bench {

struct SchedulerSpec {
  std::string label;  ///< curve name, matching the paper's legend
  std::function<std::unique_ptr<core::Scheduler>()> factory;

  /// Charge measured scheduler wall time into the timeline ("real" curves;
  /// the paper's "no sched. time" / "no part. time" variants set false).
  bool account_sched_cost = false;

  /// Skip working sets larger than this (mHFP's packing time is deliberately
  /// faithful to the paper and becomes prohibitive at scale, exactly as in
  /// Figures 3/5).
  double max_working_set_mb = std::numeric_limits<double>::infinity();

  /// Skip working sets smaller than this (the paper enables the DARTS scan
  /// threshold only beyond 3500 MB, Figure 8).
  double min_working_set_mb = 0.0;

  /// Let this curve's push-time prefetch hints evict (StarPU's eager
  /// prefetch allocation; see EngineConfig::hints_may_evict).
  bool hints_may_evict = false;
};

// Standard curve factories.
SchedulerSpec eager_spec();
SchedulerSpec dmdar_spec();
SchedulerSpec hmetis_spec(bool with_partition_time,
                          double max_working_set_mb =
                              std::numeric_limits<double>::infinity());
SchedulerSpec mhfp_spec(bool with_sched_time, double max_working_set_mb);
SchedulerSpec darts_spec(const core::DartsOptions& options,
                         bool with_sched_time = false);

struct WorkloadPoint {
  double working_set_mb;                      ///< x axis
  std::function<core::TaskGraph()> make;      ///< lazy workload generation
};

struct FigureConfig {
  std::string figure;  ///< e.g. "fig03"
  std::string title;   ///< printed as a CSV comment
  core::Platform platform;
  std::uint64_t seed = 42;
  std::uint32_t repetitions = 1;  ///< averaged (seeds vary per repetition)
  std::string output_path;        ///< empty = stdout

  /// Worker threads for the sweep (rows stay in deterministic order).
  /// Parallel execution is only used when no scheduler spec charges
  /// wall-clock cost — timing measurements need an unloaded machine.
  std::uint32_t jobs = 1;

  /// When non-empty, attach a sim::RunReportCollector to the first
  /// repetition of every (point, scheduler) run and write all reports as
  /// one JSON document (docs/OBSERVABILITY.md) to this path.
  std::string run_report_path;

  /// When non-empty, write the Chrome-tracing timeline of the sweep's last
  /// (point, scheduler) run to this path.
  std::string chrome_trace_path;

  /// Fault plan injected into every run (docs/ROBUSTNESS.md); empty = no
  /// fault machinery at all. Loaded from --fault-plan.
  sim::FaultPlan fault_plan;

  /// Proactive fault tolerance (docs/ROBUSTNESS.md). Forwarded into every
  /// EngineConfig: checkpoint snapshots every `checkpoint_interval_us` of
  /// simulated compute (or every `checkpoint_fraction` of each task), and
  /// `replicate_hot` keeps a second copy of hot shared data on another GPU
  /// while a fault plan threatens GPU losses.
  double checkpoint_interval_us = 0.0;
  double checkpoint_fraction = 0.0;
  bool replicate_hot = false;
};

/// Runs the sweep and writes the CSV. Columns:
///   working_set_mb, scheduler, gflops, transfers_mb, loads, evictions,
///   makespan_ms, sched_prepare_ms, sched_pop_ms
/// Exits 2 when a point's graph has a task larger than the GPU memory, 3 on
/// an engine failure, 1 when --run-report or --chrome-trace cannot be
/// written.
void run_figure(const FigureConfig& config,
                const std::vector<WorkloadPoint>& points,
                const std::vector<SchedulerSpec>& schedulers);

/// Observability for binaries with bespoke sweep loops (the abl_* harnesses
/// that cannot express their runs as run_figure points): runs each engine
/// through serve::RunInspectors, keeps its report for --run-report and its
/// trace for --chrome-trace (the last observed run wins, like run_figure's
/// last run), and writes both on destruction, exiting 1 when it cannot.
class RunObserver {
 public:
  explicit RunObserver(const FigureConfig& config);
  ~RunObserver();

  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  /// Runs `engine` to completion, its report labelled `label`; `check`
  /// attaches an invariant checker (exit 1 on a violation).
  core::RunMetrics run(sim::RuntimeEngine& engine,
                       const core::TaskGraph& graph, const std::string& label,
                       bool check = false);

 private:
  std::string figure_;
  std::string title_;
  serve::RunOutputs outputs_;
};

/// The flag blocks of a bench binary. Every binary takes the platform flags
/// (sim/platform_flags.hpp), --seed, --out and --run-report, and on top only
/// the blocks it reads: any other flag is unknown (exit 2).
enum FlagBlock : unsigned {
  kBaseFlags = 0,
  kFullFlag = 1u << 0,       ///< --full
  kTraceFlag = 1u << 1,      ///< --chrome-trace
  kSweepFlags = 1u << 2,     ///< --reps, --jobs
  kFaultPlanFlag = 1u << 3,  ///< --fault-plan
  /// --checkpoint-interval, --checkpoint-fraction, --replicate-hot
  kRecoveryFlags = 1u << 4,
  /// What the RunObserver ablations read.
  kObserverFlags = kFullFlag | kTraceFlag,
  /// What run_figure reads: every block.
  kFigureFlags =
      kObserverFlags | kSweepFlags | kFaultPlanFlag | kRecoveryFlags,
};

/// Registers the base flags and `blocks` (FlagBlock bits) on `flags`.
void add_standard_flags(util::Flags& flags, unsigned blocks,
                        std::uint32_t default_gpus,
                        std::int64_t default_mem_mb = 500);

/// Builds a FigureConfig from parsed standard flags; a block the binary did
/// not register keeps FigureConfig's defaults.
FigureConfig config_from_flags(const util::Flags& flags, std::string figure,
                               std::string title);

/// One timed run of a bench_* gate's pinned scenario: its event count, the
/// wall seconds of the run alone and the gate's own count (jobs fused,
/// co-run pairs).
struct GateRun {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t count = 0;
};

/// Calls `timed_run` `repeat` times; the event count must repeat (else exit
/// status 1) and the fastest wall time wins. Writes BENCH_<name>.json's
/// fields to `path`, adding the first run's count as `count_key` unless it
/// is null, prints a summary line with peak RSS, and returns the exit
/// status (1 when `path` cannot be written).
int run_gate(const std::string& name, std::int64_t repeat,
             const std::string& path,
             const std::function<GateRun()>& timed_run,
             const char* count_key = nullptr,
             const char* count_label = nullptr);

/// A served run's occupancy section in two numbers: the mean occupancy over
/// the GPUs and the highest per-GPU peak of running warps.
struct OccupancySummary {
  double mean_occupancy = 0.0;
  std::uint32_t peak_warps = 0;
};
OccupancySummary summarize_occupancy(
    const sim::RunReport::Occupancy& occupancy);

}  // namespace mg::bench
