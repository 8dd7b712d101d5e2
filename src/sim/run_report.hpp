// Metrics / trace collector — the observability half of the inspector
// subsystem.
//
// A RunReportCollector attached to a RuntimeEngine aggregates, as the run
// progresses: per-GPU work and load-balance, wire occupancy per channel
// (host bus, write-back channel, NVLink egress ports) including a bucketed
// occupancy-over-time series, eviction counts grouped by the eviction
// policy driving each GPU, demand-vs-prefetch load counts, and — when a
// fault plan is active — fault/recovery statistics (GPU losses, capacity
// shocks, reclaimed tasks, transfer retries, recovery latencies). It also
// mirrors the run's execution Trace (loads, evictions, task starts/ends,
// write-backs) — the one way to record a trace, for the Chrome-tracing
// timeline, the reuse statistics and fixed-order replays.
//
// The report serializes to JSON (schema documented in
// docs/OBSERVABILITY.md, schema_version 6); bench/figure_harness exposes it
// behind --run-report / --chrome-trace on every figure and ablation binary.
// Streamed (serving) runs add a "serving" section — filled in by
// serve::ServeEngine from its JobTracker — and the faults section attributes
// each reclaimed task to the survivor that re-ran it. Schema 4 adds the
// proactive fault-tolerance subsections: faults.checkpoints (progress
// snapshots and the compute they saved), faults.replicas (replication-aware
// placement) and faults.replay_divergence (fixed-order replay degradation).
// Schema 5 adds the "cluster" section for multi-node platforms: per-node
// task loads and PCI traffic, host-cache fill/evict counts, inter-node
// network transfers/bytes and the cross-node steal count (patched in by the
// hierarchical scheduling driver). The section stays zeroed — and the rest
// of the report byte-identical to a schema-4 run — when num_nodes == 1.
// Schema 6 adds the "dependencies" section for DAG workloads: edge counts
// by kind (explicit / RAW / WAR / WAW), the critical-path length, the
// maximum ready-frontier width observed during the run, and release/enable
// event totals. The section stays zeroed — and the rest of the report
// byte-identical to a schema-5 run — when the graph carries no edges.
// Schema 7 adds the "autoscaling" section for elastic topology change
// (src/cluster/autoscaler): scale events, node drains/joins/losses, tasks
// drained, migration and warm-fill traffic, and drain latency. The section
// stays zeroed — and the rest of the report byte-identical to a schema-6
// run — when the topology never changes.
// Schema 8 adds the "occupancy" section for occupancy-aware GPU sharing
// (src/occupancy): the warp budget and admission threshold, per-GPU peak
// and time-weighted mean warp occupancy, admissions/rejections and co-run
// pair counts. The section stays zeroed — and the rest of the report
// byte-identical to a schema-7 run — when sharing is off (threshold 0).
// Schema 9 adds the "network_faults" section for link fault injection and
// the hedged-fetch / suspicion machinery (sim/fault_plan link_faults,
// EngineConfig::fetch_timeout_factor): degradation/partition/heal counts,
// remote-fetch timeouts and hedges (with the wasted duplicate-delivery
// bytes), and the failure detector's suspect/clear/escalate totals. The
// section stays zeroed — and the rest of the report byte-identical to a
// schema-8 run — when no link fault fires and fetch timeouts are off.
// Schema 10 adds the "slo" section for SLO-tiered serving and cross-job
// super-task batching (slo::SloConfig via serve::ServeConfig): fused-job /
// super-task-launch / unfuse counts, eviction-veto statistics, and per-tier
// latency percentiles patched in by the serving layer. The section stays
// zeroed — and the rest of the report byte-identical to a schema-9 run —
// when the SLO layer is disabled.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/inspector.hpp"
#include "sim/trace.hpp"

namespace mg::sim {

struct RunReport {
  static constexpr int kSchemaVersion = 10;

  std::string scheduler;
  std::string context;  ///< free-form label (figure id, workload, ...)

  // Platform echo.
  std::uint32_t num_gpus = 0;
  std::uint64_t gpu_memory_bytes = 0;
  double bus_bandwidth_bytes_per_s = 0.0;
  bool nvlink = false;

  // Whole-run aggregates.
  double makespan_us = 0.0;
  double total_flops = 0.0;
  double achieved_gflops = 0.0;

  struct Gpu {
    std::uint64_t tasks_executed = 0;
    double busy_us = 0.0;
    std::uint64_t loads = 0;            ///< host-bus loads landed
    std::uint64_t peer_loads = 0;       ///< NVLink loads landed
    std::uint64_t bytes_loaded = 0;     ///< host + peer bytes landed
    std::uint64_t evictions = 0;
    std::uint64_t peak_committed_bytes = 0;  ///< resident + in-flight + scratch
    std::string eviction_policy;        ///< policy driving this GPU
  };
  std::vector<Gpu> per_gpu;

  struct LoadBalance {
    std::uint64_t max_tasks = 0;
    std::uint64_t min_tasks = 0;
    double mean_tasks = 0.0;
    /// max busy time / mean busy time; 1.0 = perfectly balanced.
    double busy_imbalance = 0.0;
  };
  LoadBalance load_balance;

  struct Channel {
    std::string name;
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    double busy_us = 0.0;
    double occupancy = 0.0;  ///< busy_us / makespan_us
    /// Fraction of each of the evenly-sized time buckets the wire was busy.
    std::vector<double> occupancy_buckets;
  };
  std::vector<Channel> channels;

  struct Prefetch {
    std::uint64_t demand_fetches = 0;
    std::uint64_t prefetch_fetches = 0;  ///< pipeline prefetches + hints
    /// prefetch_fetches / (demand + prefetch): the share of loads issued
    /// ahead of the demand that would otherwise have stalled the GPU.
    double hit_rate = 0.0;
  };
  Prefetch prefetch;

  /// Evictions grouped by the policy that chose them (e.g. "LRU",
  /// "DARTS+LUF").
  std::map<std::string, std::uint64_t> evictions_by_policy;

  /// Fault injection and recovery (sim/fault_plan.hpp). All zero / empty
  /// when the run had no fault plan.
  struct Faults {
    std::uint32_t gpu_losses = 0;
    std::uint32_t capacity_shocks = 0;
    std::uint64_t tasks_reclaimed = 0;     ///< orphans pulled off dead GPUs
    std::uint64_t transfer_retries = 0;    ///< failed delivery attempts
    std::uint64_t wasted_transfer_bytes = 0;  ///< bytes re-sent by retries
    /// One entry per GPU loss: simulated time from the loss until the last
    /// orphaned task finished on a surviving GPU (0 when nothing was
    /// orphaned).
    std::vector<double> recovery_latency_us;
    double max_recovery_latency_us = 0.0;
    /// Recovery attribution: which survivor re-ran each reclaimed task
    /// (whether the scheduler adopted the orphans or the engine requeued
    /// them). One entry per reclaimed task that re-ran.
    struct Adoption {
      std::uint32_t task = 0;
      std::uint32_t from_gpu = 0;  ///< the GPU that died holding the task
      std::uint32_t to_gpu = 0;    ///< the survivor that absorbed it
    };
    std::vector<Adoption> adoptions;

    /// Task-progress checkpointing (schema 4). Zeroed when the policy is
    /// off.
    struct Checkpoints {
      std::uint64_t taken = 0;           ///< snapshots committed
      std::uint64_t payload_bytes = 0;   ///< cumulated snapshot bytes
      double overhead_us = 0.0;          ///< write-back bus time of the drains
      std::uint64_t tasks_restored = 0;  ///< re-runs resumed mid-task
      double compute_saved_us = 0.0;     ///< compute skipped by restores
    };
    Checkpoints checkpoints;

    /// Replication-aware placement (schema 4). Zeroed when replication is
    /// inactive.
    struct Replicas {
      std::uint64_t created = 0;   ///< proactive replica fetches issued
      std::uint64_t bytes = 0;     ///< bytes of created replicas
      std::uint64_t shed = 0;      ///< replicas dropped under pressure
      std::uint64_t protected_sole_survivor = 0;  ///< promotions after a loss
      std::uint64_t released = 0;  ///< protections lifted again
      /// Host-bus loads landed after the first GPU loss — the traffic
      /// replication exists to avoid.
      std::uint64_t post_loss_host_loads = 0;
    };
    Replicas replicas;

    /// Fixed-order replay degradation (schema 4): one entry per lost GPU
    /// whose recorded order was rewired onto survivors.
    struct ReplayDivergenceEntry {
      std::uint32_t gpu = 0;               ///< the GPU whose order broke
      std::uint32_t divergence_index = 0;  ///< first unexecuted recorded slot
      std::uint32_t reassigned_tasks = 0;  ///< suffix tasks work-stolen
    };
    std::vector<ReplayDivergenceEntry> replay_divergence;
  };
  Faults faults;

  /// Streamed (serving) runs: jobs, latency percentiles and cross-job data
  /// reuse. Filled by serve::ServeEngine; `enabled` stays false for batch
  /// runs (the section still serializes, zeroed).
  struct Serving {
    bool enabled = false;
    std::string arrival;  ///< "poisson" / "closed-loop" / ""
    std::uint32_t jobs_submitted = 0;
    std::uint32_t jobs_completed = 0;
    std::uint32_t jobs_shed = 0;
    double throughput_jobs_per_s = 0.0;  ///< completed / makespan
    double latency_p50_us = 0.0;  ///< submit-to-finish, nearest-rank
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
    double latency_mean_us = 0.0;
    double latency_max_us = 0.0;
    std::uint32_t deadline_hits = 0;
    std::uint32_t deadline_misses = 0;
    double deadline_miss_rate = 0.0;  ///< misses / jobs with a deadline
    /// Bytes a job's tasks consumed from data already resident before the
    /// job arrived (left there by earlier jobs) — counted once per
    /// (job, data, gpu) — vs. total input bytes touched.
    std::uint64_t cross_job_reuse_bytes = 0;
    std::uint64_t cross_job_reuse_hits = 0;
    std::uint32_t peak_jobs_in_flight = 0;
    std::uint32_t peak_queue_depth = 0;  ///< admission queue high-water mark
    /// Admission queue depth over time: (time_us, depth) at every change.
    std::vector<std::pair<double, std::uint32_t>> queue_depth_timeline;
  };
  Serving serving;

  /// Multi-node cluster runs (schema 5): per-node load split, host-cache
  /// behaviour and inter-node network traffic. `enabled` stays false — and
  /// every field zeroed — on single-node platforms.
  struct Cluster {
    bool enabled = false;
    std::uint32_t num_nodes = 1;
    struct Node {
      std::uint32_t gpu_begin = 0;  ///< first GPU of the node's block
      std::uint32_t gpu_end = 0;    ///< one past the last GPU
      std::uint64_t tasks_executed = 0;
      double busy_us = 0.0;
      std::uint64_t loads = 0;         ///< node-PCI loads landed on its GPUs
      std::uint64_t bytes_loaded = 0;  ///< PCI + peer bytes landed on them
      /// Network fetches initiated because the node needed remote data.
      std::uint64_t remote_fetches = 0;
      std::uint64_t host_cache_fills = 0;
      std::uint64_t host_cache_evictions = 0;
    };
    std::vector<Node> per_node;
    std::uint64_t network_transfers = 0;  ///< inter-node deliveries
    std::uint64_t network_bytes = 0;      ///< bytes they carried
    std::uint64_t host_cache_fills = 0;
    std::uint64_t host_cache_evictions = 0;
    /// Cross-node work steals — patched in by the hierarchical scheduling
    /// driver (cluster::HierarchicalScheduler::steal_count), mirroring how
    /// ServeEngine fills the serving section.
    std::uint64_t steals = 0;
  };
  Cluster cluster;

  /// DAG workloads (schema 6): dependency shape and release dynamics.
  /// `enabled` stays false — and every field zeroed — when the task graph
  /// carries no dependency edges.
  struct Dependencies {
    bool enabled = false;
    std::uint64_t explicit_edges = 0;  ///< add_dependency edges
    std::uint64_t raw_edges = 0;       ///< read-after-write (derived)
    std::uint64_t war_edges = 0;       ///< write-after-read (derived)
    std::uint64_t waw_edges = 0;       ///< write-after-write (derived)
    std::uint64_t total_edges = 0;     ///< unique (pred, succ) pairs
    /// Longest chain of dependent tasks (in tasks, not edges): a lower
    /// bound on the number of sequential execution rounds.
    std::uint32_t critical_path_length = 0;
    /// High-water mark of the ready frontier: tasks enabled (all
    /// predecessors retired) but not yet started.
    std::uint32_t max_ready_width = 0;
    std::uint64_t tasks_enabled = 0;   ///< kTaskEnabled events observed
    /// kEdgeReleased events observed; re-releases after an un-retirement
    /// count again, so this can exceed total_edges on faulty runs.
    std::uint64_t edges_released = 0;
    std::uint64_t tasks_unretired = 0; ///< retirements rolled back by a loss
  };
  Dependencies dependencies;

  /// Elastic autoscaling (schema 7): planned node drains/joins and
  /// unplanned whole-node losses. `enabled` stays false — and every field
  /// zeroed — when the topology never changes. scale_out/scale_in count
  /// the autoscaler policy's decisions (patched in by serve::ServeEngine);
  /// the remaining fields aggregate the engine's topology events.
  struct Autoscaling {
    bool enabled = false;
    std::uint32_t scale_out_events = 0;  ///< policy decisions to add a node
    std::uint32_t scale_in_events = 0;   ///< policy decisions to drain one
    std::uint32_t nodes_drained = 0;     ///< planned drains completed
    std::uint32_t nodes_joined = 0;      ///< warm-ups completed
    std::uint32_t node_losses = 0;       ///< unplanned whole-node failures
    std::uint64_t tasks_drained = 0;     ///< buffered tasks pulled back
    std::uint64_t migrations = 0;        ///< sole-copy datas re-homed
    std::uint64_t migrated_bytes = 0;
    std::uint64_t warm_fills = 0;        ///< host-cache pre-stages on join
    std::uint64_t warm_fill_bytes = 0;
    double drain_latency_total_us = 0.0; ///< fence-to-retire, summed
    double drain_latency_max_us = 0.0;
  };
  Autoscaling autoscaling;

  /// Occupancy-aware GPU sharing (schema 8): warp-budget admission and
  /// co-scheduling statistics. `enabled` stays false — and every field
  /// zeroed — when EngineConfig::occupancy_threshold is 0.
  struct Occupancy {
    bool enabled = false;
    double threshold = 0.0;          ///< admission threshold (fraction)
    std::uint32_t total_warps = 0;   ///< device warp budget (SMs x warps/SM)
    std::uint32_t budget_warps = 0;  ///< largest admissible active load
    struct Gpu {
      std::uint32_t peak_warps = 0;  ///< high-water active-warp mark
      double mean_occupancy = 0.0;   ///< time-weighted active/total warps
    };
    std::vector<Gpu> per_gpu;
    std::uint64_t admissions = 0;    ///< tasks admitted into sharing sets
    std::uint64_t rejections = 0;    ///< head tasks held back at the budget
    /// Concurrent (already-running, newly-admitted) pairs — each admission
    /// onto a busy GPU contributes its current co-runner count.
    std::uint64_t co_run_pairs = 0;
  };
  Occupancy occupancy;

  /// Network fault injection and recovery (schema 9): link windows applied
  /// by the injector, remote-fetch timeouts and the hedges they triggered,
  /// and the suspicion-based failure detector's verdicts. `enabled` stays
  /// false — and every field zeroed — when the run saw no link fault and no
  /// fetch timeout was armed.
  struct NetworkFaults {
    bool enabled = false;
    std::uint32_t link_degradations = 0;  ///< bandwidth/straggler windows
    std::uint32_t link_partitions = 0;    ///< full-partition windows opened
    std::uint32_t link_heals = 0;         ///< windows that closed (restored)
    std::uint64_t fetch_timeouts = 0;     ///< remote-fetch deadlines expired
    std::uint64_t hedged_fetches = 0;     ///< alternate-source fetches issued
    std::uint64_t hedges_wasted = 0;      ///< duplicate deliveries discarded
    std::uint64_t hedge_wasted_bytes = 0; ///< bytes those duplicates carried
    std::uint32_t nodes_suspected = 0;    ///< suspicion raised
    std::uint32_t suspicions_cleared = 0; ///< recovered by a later delivery
    std::uint32_t suspicions_escalated = 0;  ///< confirmed -> node loss
  };
  NetworkFaults network_faults;

  /// SLO tiers and cross-job batching (schema 10): super-task fusion and
  /// eviction-protection statistics, plus per-tier latency percentiles the
  /// serving layer patches in after the run (like the serving section).
  /// `enabled` stays false — and every field zeroed — when the SLO layer
  /// is off.
  struct Slo {
    bool enabled = false;
    std::uint32_t tiers = 0;              ///< tier count (0 = untiered)
    std::uint64_t jobs_fused = 0;         ///< member jobs fused into leaders
    std::uint64_t super_tasks = 0;        ///< fused launches (>= 1 rider)
    std::uint64_t batches_unfused = 0;    ///< members split back on a fault
    std::uint64_t evictions_vetoed = 0;   ///< candidate scans that hit a veto
    std::uint64_t protections = 0;        ///< data protection windows opened
    struct Tier {
      std::uint32_t tier = 0;
      std::uint32_t jobs = 0;             ///< jobs retired in this tier
      double p50_us = 0.0;                ///< end-to-end latency percentiles
      double p95_us = 0.0;
      double p99_us = 0.0;
      std::uint32_t deadline_misses = 0;
    };
    std::vector<Tier> per_tier;
  };
  Slo slo;
};

/// Serializes one report as a JSON object.
[[nodiscard]] std::string run_report_to_json(const RunReport& report);

/// Writes `{"schema_version":10,"context":...,"runs":[...]}` to `path`.
/// Returns false on I/O error.
bool write_run_reports(const std::vector<RunReport>& reports,
                       const std::string& context, const std::string& path);

class RunReportCollector final : public Inspector {
 public:
  struct Options {
    std::string context;          ///< copied into RunReport::context
    std::uint32_t occupancy_buckets = 32;
    bool collect_trace = true;    ///< mirror a sim::Trace for Chrome export
  };

  RunReportCollector();
  explicit RunReportCollector(Options options);

  // Inspector
  void on_run_begin(const core::TaskGraph& graph,
                    const core::Platform& platform,
                    std::string_view scheduler_name) override;
  void on_event(const InspectorEvent& event) override;
  void on_run_end(double makespan_us) override;

  /// The eviction policy wired to `gpu` for this run.
  void on_eviction_policy(core::GpuId gpu,
                          std::string_view policy_name) override;

  /// Valid after on_run_end.
  [[nodiscard]] const RunReport& report() const { return report_; }

  /// Mirrored execution trace (empty when collect_trace is off); feed to
  /// analysis::export_chrome_trace for the chrome://tracing timeline.
  [[nodiscard]] const Trace& trace() const { return trace_; }

 private:
  struct ChannelState {
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    double busy_us = 0.0;
    double open_since_us = -1.0;
    std::vector<std::pair<double, double>> intervals;
  };

  struct GpuScratch {
    std::uint64_t committed = 0;
    std::uint64_t peak_committed = 0;
    double task_open_us = 0.0;
  };

  /// One GPU loss whose orphaned tasks have not all re-run yet.
  struct PendingRecovery {
    double loss_time_us = 0.0;
    std::vector<std::uint32_t> outstanding;  ///< orphan TaskIds still to run
  };

  Options options_;
  const core::TaskGraph* graph_ = nullptr;
  core::Platform platform_;
  RunReport report_;
  Trace trace_;
  std::vector<ChannelState> channels_;
  std::vector<GpuScratch> gpu_scratch_;
  std::vector<PendingRecovery> pending_recoveries_;
  /// Reclaimed tasks awaiting their re-run: task -> GPU that died holding
  /// it. The next kTaskStart of the task closes the attribution.
  std::map<std::uint32_t, std::uint32_t> pending_adoptions_;

  // Dependency ready-frontier tracking (schema 6). The collector mirrors
  // per-task pending-predecessor counts from kEdgeReleased / kTaskUnretired
  // so a revocation can retract a counted-but-revoked enablement.
  std::vector<std::uint32_t> dep_pending_;
  std::vector<bool> dep_counted_ready_;
  std::vector<bool> dep_started_;
  std::int64_t ready_width_ = 0;

  /// Drain fences still open (schema 7): node -> kNodeDrainStart time, so
  /// the matching kNodeDrained can report the fence-to-retire latency.
  std::map<std::uint32_t, double> drain_open_us_;

  // Occupancy-sharing accounting (schema 8), armed by kOccupancyConfig.
  // With sharing on, per-GPU busy time is the wall time anything co-runs —
  // tracked by the running counter — instead of summed task spans.
  struct OccLoad {
    std::uint32_t active_warps = 0;
    std::uint32_t running = 0;
    double integral = 0.0;       ///< sum of active_warps * dt
    double last_change_us = 0.0;
    double busy_open_us = 0.0;   ///< opened when the running set became
                                 ///< non-empty
  };
  void occ_accrue(OccLoad& load, double now_us);
  void occ_close_gpu(std::uint32_t gpu, double now_us);
  bool occ_armed_ = false;
  std::vector<OccLoad> occ_;
  std::vector<std::uint32_t> occ_task_warps_;  ///< clamped footprint at admit
};

}  // namespace mg::sim
