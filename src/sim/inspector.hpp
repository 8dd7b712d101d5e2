// Run observability: the inspector interface every simulation component
// publishes to.
//
// The engine, the per-GPU memory managers and every bus channel emit a
// single linear stream of InspectorEvents — task starts/ends, fetch
// starts, load completions, evictions, scratch reservations, wire-level
// transfer occupancy, output write-backs, and the notify_* calls made into
// the scheduler. Inspectors attached to a RuntimeEngine (via
// add_inspector) observe the stream as the simulation runs; when none is
// attached the engine skips event construction entirely, so the hooks cost
// one branch per event site.
//
// Two first-class implementations live next to this header:
//   * InvariantChecker (invariant_checker.hpp) — validates the execution
//     model online and fails fast with an event-log excerpt;
//   * RunReportCollector (run_report.hpp) — aggregates per-GPU load
//     balance, channel occupancy, eviction and prefetch statistics into a
//     structured JSON run report and a Chrome-tracing timeline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/ids.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"

namespace mg::sim {

enum class InspectorEventKind : std::uint8_t {
  kFetchStart,     ///< memory manager committed bytes for data `id` on `gpu`
                   ///< (aux: 1 = demand fetch, 0 = pipeline prefetch/hint)
  kLoadComplete,   ///< data `id` became resident on `gpu` (aux: 1 = peer copy)
  kEvict,          ///< data `id` evicted from `gpu` (aux: pin count, must be 0)
  kScratchReserve, ///< output scratch of task `id` reserved on `gpu`
  kScratchRelease, ///< output scratch of task `id` released on `gpu`
  kTransferStart,  ///< a transfer started occupying wire `channel`
  kTransferEnd,    ///< the transfer on `channel` finished
  kWriteBackStart, ///< output of task `id` started its host write-back
  kWriteBackEnd,   ///< output of task `id` fully written back
  kTaskStart,      ///< task `id` started computing on `gpu`
  kTaskEnd,        ///< task `id` finished computing on `gpu`
  kNotifyTaskComplete,  ///< engine called scheduler.notify_task_complete
  kNotifyDataLoaded,    ///< engine called scheduler.notify_data_loaded
  kNotifyDataEvicted,   ///< engine called scheduler.notify_data_evicted

  // Fault injection (sim/fault_plan.hpp).
  kGpuLost,        ///< `gpu` failed permanently (bytes: resident bytes lost,
                   ///< aux: tasks to re-run — reclaimed orphans plus any
                   ///< un-retired completions on a dependency-gated run)
  kCapacityShock,  ///< `gpu` capacity became `bytes` (aux: 1 = request was
                   ///< clamped to the minimum safe capacity)
  kTransferRetry,  ///< delivery attempt `aux` of data `id` towards `gpu`
                   ///< failed on `channel`; retried after backoff
  kTaskReclaimed,  ///< task `id` reclaimed from dead `gpu`, to re-run
  kNotifyGpuLost,  ///< engine called scheduler.notify_gpu_lost (id: orphan
                   ///< count, aux: 1 = scheduler adopted the orphans)

  // Streaming / serving (src/serve, engine streaming mode). `gpu` is 0 for
  // all five — jobs are not bound to a device.
  kJobArrival,     ///< job `id` released into the engine (aux: task count)
  kJobComplete,    ///< last task of job `id` completed (aux: task count)
  kJobShed,        ///< job `id` shed by admission control (aux: task count)
  kTaskReleased,   ///< task `id` became eligible for popping (aux: job id)
  kTaskCancelled,  ///< task `id` of a shed job will never run (aux: job id)

  // Proactive fault tolerance (checkpointing, replication, replay).
  kCheckpoint,       ///< task `id` committed a progress snapshot on `gpu`
                     ///< (bytes: snapshot payload, aux: progress fraction in
                     ///< parts-per-million)
  kProgressRestored, ///< task `id` re-ran on `gpu` from checkpointed
                     ///< progress (aux: restored fraction in ppm)
  kReplicaCreate,    ///< data `id` proactively replicated onto `gpu`
  kReplicaProtect,   ///< replica of data `id` on `gpu` became the sole
                     ///< surviving copy; protected from eviction
  kReplicaRelease,   ///< protection of data `id` on `gpu` lifted (aux:
                     ///< 1 = no remaining planned uses, 0 = copy elsewhere)
  kReplicaShed,      ///< replica of data `id` dropped from `gpu` to make
                     ///< room (the matching kEvict follows immediately)
  kReplayDivergence, ///< fixed-order replay diverged on loss of `gpu`
                     ///< (id: divergence index in the recorded order,
                     ///< aux: tasks reassigned to survivors)

  // Multi-node cluster (src/cluster; engine cluster routing). `gpu` is the
  // GPU whose miss initiated the network fetch, `aux` the node involved.
  kHostFetchStart, ///< node `aux` started fetching data `id` from its home
                   ///< node's host memory on behalf of `gpu`
  kHostCacheFill,  ///< data `id` landed in node `aux`'s host cache (ready to
                   ///< cross that node's PCI bus towards `gpu`)
  kHostCacheEvict, ///< data `id` dropped from node `aux`'s bounded host
                   ///< cache to make room

  // Dependencies (DAG workloads; engine release gating). `gpu` is the GPU
  // whose retirement drove the release — 0 for load-time enablements.
  kEdgeReleased,   ///< dependency edge pred `id` -> succ `aux` released by
                   ///< pred's retirement (bytes: edge kind bitmask)
  kTaskEnabled,    ///< task `id`'s last predecessor retired: runnable now
                   ///< (aux: 1 = enabled at load, no predecessors)
  kTaskUnretired,  ///< retirement of task `id` rolled back: its effects died
                   ///< with `gpu` before becoming durable; it will re-run and
                   ///< its released edges are re-armed

  // Elastic autoscaling / planned topology change (src/cluster/autoscaler).
  // `id` carries the node for the node-lifecycle kinds; `gpu` is the GPU the
  // per-task/per-data kinds concern.
  kNodeDrainStart, ///< node `id` fenced: no new dispatch, begin evacuating
                   ///< (aux: buffered tasks pulled back for re-dispatch)
  kTaskDrained,    ///< task `id` pulled from draining `gpu`'s pipeline before
                   ///< starting; re-served to the survivors (aux: node)
  kDataMigrateStart, ///< sole-copy data `id` homed on a draining node started
                     ///< migrating (bytes: size, aux: destination node)
  kDataMigrated,   ///< data `id` finished migrating; its home is now node
                   ///< `aux` (bytes: size)
  kNodeDrained,    ///< node `id` fully evacuated and retired (bytes: migrated
                   ///< bytes, aux: drain latency in whole µs)
  kNodeJoinStart,  ///< node `id` began warming up (aux: planned warm fills)
  kNodeWarmFill,   ///< data `id` pre-staged into warming node `aux`'s host
                   ///< cache (bytes: size)
  kNodeJoined,     ///< node `id` finished warm-up and serves traffic
                   ///< (aux: warm fills completed)
  kNodeLost,       ///< node `id` failed unplanned: all its GPUs + host cache
                   ///< died at once (aux: tasks to re-run across the node)

  // Occupancy-aware GPU sharing (src/occupancy; engine sharing mode).
  kOccupancyConfig,   ///< sharing armed for the run (id: total warps per
                      ///< GPU, bytes: admission budget in warps, aux:
                      ///< threshold in parts-per-million)
  kTaskAdmitted,      ///< task `id` admitted onto `gpu`'s sharing set
                      ///< (bytes: clamped warp footprint, aux: active warps
                      ///< after the admission)
  kAdmissionRejected, ///< head task `id` held back on `gpu`: admitting its
                      ///< footprint would cross the threshold (bytes:
                      ///< clamped warp footprint, aux: current active warps)

  // Network faults (fault-plan link_faults; engine netfault layer). Link
  // kinds carry the node pair as `gpu` (src) and `id` (dst); fetch kinds
  // carry the destination node's first GPU in `gpu` and the data in `id`.
  kLinkDegraded,    ///< link gpu(src)–id(dst) degraded (bytes: bandwidth
                    ///< factor in ppm, aux: straggler latency in whole µs)
  kLinkPartitioned, ///< link gpu(src)–id(dst) partitioned: nothing crosses
                    ///< (bytes: heal time in whole µs, 0 = never heals)
  kLinkRestored,    ///< link gpu(src)–id(dst) healthy again (aux: 1 = the
                    ///< window was a partition)
  kFetchTimeout,    ///< network fetch of data `id` towards the node of `gpu`
                    ///< missed its deadline (bytes: size, aux: source node)
  kFetchHedged,     ///< the timed-out fetch of data `id` was re-issued from
                    ///< an alternate holder (bytes: size, aux: reroute
                    ///< target node)
  kHedgeWasted,     ///< a losing duplicate delivery of data `id` arrived
                    ///< after the fetch was already served (bytes: size,
                    ///< aux: destination node)
  kNodeSuspected,   ///< node `id` suspected unreachable: fetches from it
                    ///< time out; placement steers away (aux: timeouts seen)
  kNodeSuspicionCleared,   ///< a delivery from node `id` landed: suspicion
                           ///< lifted, the node re-integrates
  kNodeSuspicionEscalated, ///< node `id` stayed suspected past the confirm
                           ///< window: escalating to the node-loss recovery
                           ///< (aux: confirm window in whole µs)

  // SLO tiers and cross-job batching (src/slo; engine streaming mode).
  kJobsFused,         ///< queued job `id` fused into leader job `aux`'s
                      ///< super-tasks (one launch per task pair); its own
                      ///< kJobArrival follows immediately. `gpu` is 0.
  kSuperTaskLaunched, ///< fused leader task `id` started on `gpu` carrying
                      ///< `aux` rider tasks (bytes: scaled duration in
                      ///< whole µs)
  kBatchUnfused,      ///< fault/drain broke the batch: member job `id`
                      ///< detached from leader job `aux`; its unfinished
                      ///< tasks re-enter dispatch at member granularity.
                      ///< `gpu` is 0.
  kEvictionVetoed,    ///< eviction of data `id` on `gpu` blocked: an SLO
                      ///< protection (kTierProtect) covers it
  kTierProtect,       ///< data `id` became eviction-protected on behalf of a
                      ///< high-tier in-flight job (aux: tier). `gpu` is 0.
  kTierUnprotect,     ///< last protecting job of data `id` retired: the
                      ///< eviction veto lifts. `gpu` is 0.
};

[[nodiscard]] std::string_view inspector_event_kind_name(
    InspectorEventKind kind);

/// Wire channels, in the numbering the engine uses for kTransferStart/End.
inline constexpr std::uint32_t kChannelHostBus = 0;
inline constexpr std::uint32_t kChannelWriteback = 1;
inline constexpr std::uint32_t kChannelNvlinkBase = 2;  ///< +gpu for egress

// Cluster channels (num_nodes > 1): each node owns a PCI bus, a write-back
// channel and a network egress link. The bases leave room for 62 GPUs of
// NVLink egress and 64 nodes per range.
inline constexpr std::uint32_t kChannelNodePciBase = 64;        ///< +node
inline constexpr std::uint32_t kChannelNodeWritebackBase = 128; ///< +node
inline constexpr std::uint32_t kChannelNetBase = 192;           ///< +node
inline constexpr std::uint32_t kNoChannel = 0xffffffffu;

/// Number of channel slots needed to index every channel of `platform`
/// (wire-occupancy maps in the checker and report collector size with this).
[[nodiscard]] std::uint32_t inspector_channel_count(
    const core::Platform& platform);

/// Human-readable channel name ("host-bus", "writeback", "nvlink-gpu2",
/// "node1-pci", "node0-writeback", "net-node1").
[[nodiscard]] std::string inspector_channel_name(std::uint32_t channel);

struct InspectorEvent {
  double time_us = 0.0;
  InspectorEventKind kind = InspectorEventKind::kTaskStart;
  core::GpuId gpu = 0;               ///< destination / executing GPU
  std::uint32_t id = 0;              ///< TaskId or DataId, per kind
  std::uint64_t bytes = 0;           ///< transfer / scratch size
  std::uint32_t channel = kNoChannel;///< wire channel for transfer events
  std::uint32_t aux = 0;             ///< kind-specific detail (see enum)
};

/// One-line rendering used by diagnostics and the checker's log excerpt.
[[nodiscard]] std::string format_inspector_event(const InspectorEvent& event);

/// Ring of the last `capacity` events of a stream, kept raw for a diagnostic
/// excerpt: recording an event is one copy, and only render() formats.
class RecentEvents {
 public:
  explicit RecentEvents(std::size_t capacity = 0) : ring_(capacity) {}

  void push(const InspectorEvent& event) {
    if (ring_.empty()) return;
    ring_[next_] = event;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (size_ < ring_.size()) ++size_;
  }
  void clear() { next_ = size_ = 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// One "  <format_inspector_event>" line per event, oldest first.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<InspectorEvent> ring_;
  std::size_t next_ = 0;  ///< slot the next event overwrites
  std::size_t size_ = 0;
};

class Inspector {
 public:
  virtual ~Inspector() = default;

  /// Fired once, before any event, with the run's static context.
  virtual void on_run_begin(const core::TaskGraph& graph,
                            const core::Platform& platform,
                            std::string_view scheduler_name) {
    (void)graph;
    (void)platform;
    (void)scheduler_name;
  }

  /// Fired once per GPU, between on_run_begin and the first event: the
  /// eviction policy the engine wired to `gpu` for this run.
  virtual void on_eviction_policy(core::GpuId gpu,
                                  std::string_view policy_name) {
    (void)gpu;
    (void)policy_name;
  }

  virtual void on_event(const InspectorEvent& event) = 0;

  /// Fired once after the last task completed. `makespan_us` is the
  /// simulated completion time of the run.
  virtual void on_run_end(double makespan_us) { (void)makespan_us; }
};

}  // namespace mg::sim
