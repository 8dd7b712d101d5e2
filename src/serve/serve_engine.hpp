// ServeEngine — the streamed multi-graph throughput engine.
//
// Wraps one sim::RuntimeEngine (in streaming mode) into a serving loop:
// an arrival process (open-loop Poisson or closed-loop fixed concurrency)
// submits jobs — each one instance of a workload template graph — to an
// admission controller that releases, queues or sheds them; a JobTracker
// observes the run and folds throughput, latency percentiles, deadline
// outcomes and cross-job data reuse into the run report's "serving"
// section. The scheduler sees the union of all in-flight graphs, so
// data-aware policies (DARTS+LUF, DMDAR) serve repeat jobs from data a
// previous job already paid to load; share_data = false ablates exactly
// that channel away.
//
// Fault plans compose: a GPU lost mid-stream only disturbs in-flight jobs
// (orphans re-run on survivors); later arrivals are placed on the
// remaining devices. Everything is deterministic under the configured
// seeds — two runs of the same config produce bit-identical reports.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/autoscaler.hpp"
#include "core/platform.hpp"
#include "core/scheduler.hpp"
#include "core/task_graph.hpp"
#include "serve/admission.hpp"
#include "serve/arrival.hpp"
#include "serve/job.hpp"
#include "serve/job_tracker.hpp"
#include "serve/union_graph.hpp"
#include "sim/engine.hpp"
#include "sim/run_report.hpp"
#include "slo/batch_planner.hpp"
#include "slo/tier_policy.hpp"

namespace mg::serve {

struct ServeConfig {
  ArrivalConfig arrival;

  /// All-zero (the default) bounds the in-flight footprint by the
  /// platform's aggregate GPU memory with an unbounded queue; set any
  /// field to take over explicitly.
  AdmissionConfig admission;

  /// Jobs of the same template share its data (the cross-job reuse
  /// channel). False gives every job private copies — the ablation.
  bool share_data = true;

  /// Forwarded to the underlying RuntimeEngine (seed, pipeline depth,
  /// watchdog budgets, ...).
  sim::EngineConfig engine;

  /// Elastic autoscaling policy (multi-node platforms). When enabled the
  /// serving loop samples the admission state every check_interval_us and
  /// executes the policy's decisions as graceful node joins (lowest
  /// inactive node first) and drains (highest active node first).
  /// Typically paired with engine.initial_active_nodes so the run starts
  /// small and grows into the spike. Disabled (the default), no sampling
  /// pump is ever scheduled and reports stay byte-identical to a build
  /// without the autoscaler.
  cluster::AutoscalerConfig autoscale;

  /// SLO tiers and cross-job super-task batching. When enabled, tier
  /// admission weights fold into queue ordering and the priorities
  /// announced to the scheduler, tier deadlines back jobs that declare
  /// none, in-flight jobs at or above slo.protect_min_priority veto the
  /// eviction of their inputs, and — with slo.batching — the admission of
  /// a job scans the queue for compatible waiters to fuse into one
  /// super-task launch. Disabled (the default) the run stays byte-identical
  /// to a build without src/slo.
  slo::SloConfig slo;
};

struct ServeResult {
  core::RunMetrics metrics;
  sim::RunReport::Serving serving;

  /// Autoscaler decisions applied this run (mirrors the run report's
  /// autoscaling.scale_out_events / scale_in_events).
  std::uint32_t scale_out_events = 0;
  std::uint32_t scale_in_events = 0;

  /// Per-tier latency outcomes (enabled/tiers/per_tier only — the event
  /// counters come from a RunReportCollector riding the run). Zeroed when
  /// the SLO layer is off.
  sim::RunReport::Slo slo;
};

/// Completes a collector's report of a served run with what only the
/// serving layer measures: the serving section, the applied scale
/// decisions and, with SLO tiers, the per-tier latency table.
void fill_serving_report(sim::RunReport& report, const ServeResult& result);

class ServeEngine {
 public:
  /// The scheduler must support streaming (Scheduler::begin_streaming);
  /// `jobs[i].graph` indexes `templates`.
  ServeEngine(std::span<const core::TaskGraph> templates,
              std::span<const JobSpec> jobs, const core::Platform& platform,
              core::Scheduler& scheduler, ServeConfig config = {});

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Extra observability riding on the run (invariant checker, report
  /// collector); forwarded to the engine. Call before run().
  void add_inspector(sim::Inspector* inspector);

  /// Fault plan for the streamed run; forwarded. Call before run().
  void set_fault_injector(sim::FaultInjector* injector);

  /// Drives arrivals, admission and the simulation to completion.
  /// Single-shot, like RuntimeEngine::run.
  ServeResult run();

  [[nodiscard]] const UnionGraph& union_graph() const { return union_; }
  [[nodiscard]] const JobTracker& tracker() const { return tracker_; }
  [[nodiscard]] sim::RuntimeEngine& engine() { return engine_; }

 private:
  void submit(std::uint32_t job);
  void on_job_retired(std::uint32_t job);
  void maybe_refill_closed_loop();

  /// Queues Poisson arrival `job` under its reserved sequence number; when
  /// it fires it queues arrival job + 1 the same way, then submits.
  void schedule_poisson_arrival(std::uint32_t job);

  /// Priority the admission queue and the scheduler see: the job's own
  /// priority plus its tier's admission weight (the raw priority when the
  /// SLO layer is off).
  [[nodiscard]] std::uint32_t effective_priority(std::uint32_t job) const;

  /// The job's declared deadline, else its tier's default (0 = none).
  [[nodiscard]] double effective_deadline(std::uint32_t job) const;

  /// Scans the admission queue for jobs to fuse into `leader` (about to be
  /// released), takes them out of the queue and fuses them in the engine.
  /// No-op without batching.
  void try_fuse(std::uint32_t leader, double now_us);

  /// Eviction protection for a job entering / leaving flight: vetoes (or
  /// releases) eviction of the job's distinct input data when its priority
  /// clears slo.protect_min_priority.
  void protect_job(std::uint32_t job);
  void unprotect_job(std::uint32_t job);

  /// One autoscaler sampling tick: feed the admission state to the policy,
  /// apply its decision, reschedule. The pump parks itself when the
  /// simulation went quiet since the last tick (nothing but the pump ran —
  /// between traffic bursts, or every job done) so it never keeps the event
  /// loop alive on its own; submit() reawakens it with the next arrival.
  void autoscale_pump();
  void schedule_autoscale_pump();

  ServeConfig config_;
  std::vector<JobSpec> jobs_;
  UnionGraph union_;
  AdmissionController admission_;
  JobTracker tracker_;
  sim::RuntimeEngine engine_;
  std::uint32_t next_job_ = 0;  ///< next closed-loop submission
  std::vector<double> poisson_times_us_;  ///< per job, drawn by run()
  std::uint64_t poisson_sequence_ = 0;    ///< job 0's reserved sequence
  std::optional<slo::BatchPlanner> planner_;  ///< armed iff slo batching on
  std::vector<std::uint8_t> protected_jobs_;  ///< veto currently held
  std::optional<cluster::Autoscaler> autoscaler_;
  std::uint32_t scale_out_applied_ = 0;  ///< joins actually started
  std::uint32_t scale_in_applied_ = 0;   ///< drains actually started
  std::uint32_t jobs_finished_ = 0;  ///< retired + shed (pump stop condition)
  bool pump_scheduled_ = false;
  std::uint64_t last_pump_events_ = 0;  ///< engine events at the last tick
  std::uint32_t quiet_ticks_ = 0;       ///< consecutive pump-only ticks
};

}  // namespace mg::serve
