// Online invariant checker — validates the Section-III execution model as
// the simulation runs, from the engine's inspector event stream.
//
// One instance holds the single authoritative definition of the model's
// invariants: attach it to a RuntimeEngine (or ServeEngine) with
// add_inspector, or feed it a hand-built event stream. Checked
// continuously:
//
//   * committed GPU memory (resident + in-flight + scratch) never exceeds M,
//     and every landed load was committed by an earlier fetch;
//   * every task starts exactly once, on an idle GPU, with every input
//     resident; every started task ends;
//   * evictions only remove resident, unpinned data that no running task is
//     reading;
//   * each wire channel (host bus, write-back channel, NVLink egress ports)
//     carries at most one transfer at a time — the serial-link capacity the
//     bus model promises;
//   * scheduler notifications mirror engine state: notify_data_loaded only
//     for resident data, notify_data_evicted only for absent data,
//     notify_task_complete exactly once per task, after its end, on the GPU
//     that ran it;
//   * the degraded execution model under fault injection: no activity on a
//     dead GPU (no fetches, loads, evictions, task starts or
//     notifications), tasks reclaimed from a dead GPU were never finished
//     and re-run exactly once on a survivor, capacity shocks re-bound all
//     later commitments, and transfer retries only re-attempt transfers
//     that are still in flight (no double delivery);
//   * the streaming (serving) model: once any job/release event is seen, no
//     task starts before its kTaskReleased, jobs arrive / shed / complete
//     consistently (shed only before arrival, complete only after), and
//     cancelled tasks of shed jobs never run — nor are they required to by
//     the end-of-run exactly-once check;
//   * the dependency model (DAG workloads): no task starts before every
//     predecessor edge was released, released edges exist in the graph and
//     their predecessor finished (or was cancelled with its shed job), a
//     task is enabled only when its pending-predecessor count hits zero,
//     data versions are monotone (a writer never starts before every
//     earlier writer of the same data finished), an un-retirement names a
//     fully-retired task on a dead GPU and re-arms its released edges, and
//     at run end every edge was released exactly once more than it was
//     re-armed (released-edge conservation); acyclicity is enforced at
//     load by TaskGraph::Builder::build;
//   * planned topology change (elastic autoscaling): a drain fence starts
//     on an active node and no task starts on its GPUs until the node is
//     drained and later rejoined, drained tasks were buffered-but-unstarted
//     on a live GPU of a draining node and re-run elsewhere, a node retires
//     only with idle GPUs, no in-flight fetches and no outstanding host
//     fetch, a join warms only a non-serving node and warm fills land only
//     while warming, a whole-node loss kills all the node's GPUs at once,
//     and migration bytes are conserved (every migration started completes,
//     and network deliveries equal host-cache fills plus migration and
//     warm-fill payloads);
//   * occupancy-aware GPU sharing (src/occupancy): every task start on a
//     shared GPU is preceded by its admission, an admission onto a busy GPU
//     never lifts the active warp load above the configured budget (an idle
//     GPU always admits), a rejection only holds back a task that would
//     actually cross the budget, the engine's active-warp tally agrees with
//     the checker's at every admission and rejection, and at run end no
//     sharing set still holds a task;
//   * network faults (link windows, hedged fetches, suspicion): no new
//     transfer starts on a network channel while the (src, dst) link is
//     partitioned (transfers already on the wire drain), link windows open
//     and close in matched pairs of the same kind, a fetch timeout names an
//     in-flight host fetch and is eventually answered by a hedge, a
//     delivery or the destination node's loss (none outstanding at run
//     end), wasted duplicate deliveries only follow a fetch that was
//     already served, suspicion is raised at most once per episode and
//     cleared/escalated only while raised (a node loss terminates the
//     episode), and the network byte conservation above extends by the
//     wasted duplicate payloads;
//   * proactive fault tolerance: checkpoint progress per task is
//     non-decreasing and committed only while the task runs, restored
//     progress never exceeds the last checkpointed progress, a protected
//     sole-surviving replica is never evicted or shed (protection is lifted
//     by kReplicaRelease or the holder's own loss), and a replay-divergence
//     report names a dead GPU at most once;
//   * time is monotone and every id is in range.
//
// On violation the checker either aborts immediately with the offending
// event plus a log excerpt of the events leading up to it (fail_fast, the
// default — a plausible-but-wrong trace never survives to a figure), or
// records the first violation for inspection via report() (tests and
// `memsched_run --validate`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/inspector.hpp"

namespace mg::sim {

class InvariantChecker final : public Inspector {
 public:
  struct Options {
    /// Abort with the diagnostic on the first violation. When false, the
    /// first violation is recorded and later events are ignored.
    bool fail_fast = true;

    /// Number of recent events kept for the diagnostic excerpt.
    std::size_t log_window = 24;
  };

  struct Report {
    bool ok = true;
    std::string error;    ///< first violation, empty when ok
    std::string excerpt;  ///< formatted recent-event log at the violation
  };

  InvariantChecker();
  explicit InvariantChecker(Options options);

  // Inspector
  void on_run_begin(const core::TaskGraph& graph,
                    const core::Platform& platform,
                    std::string_view scheduler_name) override;
  void on_event(const InspectorEvent& event) override;
  /// Runs the end-of-run completeness checks (exactly-once execution, no
  /// task left running, every completion notified, bytes conserved).
  void on_run_end(double makespan_us) override;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const Report& report() const { return report_; }

  /// Number of events checked so far (diagnostic).
  [[nodiscard]] std::uint64_t events_checked() const { return events_; }

 private:
  struct GpuState {
    std::vector<std::uint8_t> resident;
    std::vector<std::uint8_t> in_flight;
    std::uint64_t resident_bytes = 0;
    std::uint64_t committed_bytes = 0;  ///< resident + in-flight + scratch
    std::uint64_t scratch_bytes = 0;
    /// Current capacity: gpu_memory_bytes until a kCapacityShock moves it.
    std::uint64_t capacity_bytes = 0;
    std::int64_t running = -1;
    bool alive = true;  ///< false after kGpuLost
    /// Protected sole-surviving replicas (kReplicaProtect .. kReplicaRelease).
    std::vector<std::uint8_t> prot;
    /// Sharing-mode running set (occupancy armed): `running` stays -1 and
    /// co-runners are tracked here with their summed warp load.
    std::vector<std::uint32_t> occ_running;
    std::uint32_t occ_active_warps = 0;
  };

  void fail(const InspectorEvent& event, const char* what);
  void fail_text(const std::string& message);

  Options options_;
  const core::TaskGraph* graph_ = nullptr;
  core::Platform platform_;

  std::vector<GpuState> gpus_;
  std::vector<std::uint8_t> started_;
  std::vector<std::uint8_t> ended_;
  std::vector<std::uint8_t> complete_notified_;
  std::vector<core::GpuId> ran_on_;
  /// Streaming model state. `streaming_seen_` arms the release gating after
  /// the first job/release event; job_state_ grows on demand (0 = unseen,
  /// 1 = released, 2 = shed, 3 = retired).
  bool streaming_seen_ = false;
  std::vector<std::uint8_t> released_;
  std::vector<std::uint8_t> cancelled_;
  std::vector<std::uint8_t> job_state_;
  /// SLO eviction-protection refcount per data (kTierProtect/kTierUnprotect
  /// are engine-global, so one counter vector covers every GPU): protected
  /// data must never be evicted or replica-shed anywhere.
  std::vector<std::uint32_t> slo_protected_;
  /// Dependency model state (sized only when the graph carries edges):
  /// per-task unreleased-predecessor counts and per-task released-out-edge
  /// counts (reset by kTaskUnretired, which re-arms the edges).
  std::vector<std::uint32_t> dep_pending_;
  std::vector<std::uint32_t> dep_release_count_;
  /// Last checkpointed progress per task, in ppm of the task's compute.
  std::vector<std::uint32_t> checkpoint_ppm_;
  /// GPUs whose recorded replay order already reported a divergence.
  std::vector<std::uint8_t> divergence_seen_;
  /// Active transfers per wire channel (index = channel id).
  std::vector<std::uint32_t> wire_active_;
  /// Cluster model state (sized only when the platform spans nodes):
  /// outstanding network fetches and the host-cache mirror per (node, data),
  /// plus the byte-conservation counters — every byte delivered on a
  /// network channel must land in exactly one host-cache fill.
  std::vector<std::vector<std::uint32_t>> node_fetching_;
  std::vector<std::vector<std::uint8_t>> node_cached_;
  std::uint64_t net_bytes_delivered_ = 0;
  std::uint64_t host_fill_bytes_ = 0;
  /// Topology-change state per node (sized with node_fetching_):
  /// kActive until a drain fence / join / loss moves it.
  enum class NodeStatus : std::uint8_t {
    kActive,
    kDraining,
    kInactive,
    kWarming,
    kLost,
  };
  std::vector<NodeStatus> node_status_;
  /// Migration byte conservation: every kDataMigrateStart must complete in
  /// a kDataMigrated of the same size; migration and warm-fill payloads
  /// ride the network channels alongside host-cache fills.
  std::uint64_t migrate_start_bytes_ = 0;
  std::uint64_t migrate_done_bytes_ = 0;
  std::uint64_t warm_fill_bytes_ = 0;
  /// Network-fault state (sized with node_fetching_): per-pair link window
  /// kind (0 = none, 1 = degraded, 2 = partitioned) indexed src*nodes+dst
  /// (both orders set), outstanding fetch timeouts per (dest node, data)
  /// awaiting a hedge/delivery/node loss, the suspicion flag per node, and
  /// the wasted duplicate-delivery payload for byte conservation.
  std::vector<std::uint8_t> link_state_;
  std::vector<std::vector<std::uint8_t>> timeout_outstanding_;
  std::vector<std::uint8_t> suspected_;
  std::uint64_t hedge_wasted_bytes_ = 0;
  /// Occupancy-sharing state, armed by kOccupancyConfig: the warp budget,
  /// each task's clamped footprint recorded at admission, and the
  /// admitted-but-not-yet-started flag consumed by the matching kTaskStart.
  bool occ_armed_ = false;
  std::uint32_t occ_budget_warps_ = 0;
  std::vector<std::uint32_t> occ_task_warps_;
  std::vector<std::uint8_t> occ_admitted_;
  double last_time_us_ = 0.0;
  std::uint64_t events_ = 0;

  RecentEvents recent_;
  bool ok_ = true;
  Report report_;
};

}  // namespace mg::sim
