// StarPU-like runtime engine on top of the discrete-event simulator.
//
// Each GPU runs a worker pipeline of up to `pipeline_depth` tasks pulled from
// the scheduler (the paper's taskBuffer): the head task is *assembled*
// (demand-fetch its missing inputs, pin the present ones so they cannot be
// evicted from under it), deeper tasks get their inputs prefetched through
// the shared bus. A task starts when the GPU is idle and all its inputs are
// resident; inputs stay pinned for the duration of the task.
//
// Eviction is delegated to the scheduler's core::EvictionPolicy (default
// LRU). Inputs of *buffered but not yet assembling* tasks are evictable —
// this is deliberate: the paper's analysis of DARTS-without-LUF hinges on
// exactly this "domino" effect, and LUF exists to avoid it.
//
// Scheduler cost accounting (`account_scheduler_cost`) reproduces the
// paper's "with / without scheduling time" curves: the measured wall time of
// each pop_task() call delays subsequent task starts on that GPU, and
// prepare() time is added to the reported makespan.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/ids.hpp"
#include "core/metrics.hpp"
#include "core/platform.hpp"
#include "core/scheduler.hpp"
#include "core/task_graph.hpp"
#include "occupancy/governor.hpp"
#include "sim/bus.hpp"
#include "sim/errors.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/inspector.hpp"
#include "sim/lru_eviction.hpp"
#include "sim/memory_manager.hpp"

namespace mg::sim {

struct EngineConfig {
  /// Max tasks popped ahead per GPU (running task excluded) — the worker
  /// pipeline / taskBuffer depth.
  std::uint32_t pipeline_depth = 4;

  /// Charge measured scheduler wall time into the timeline (see above).
  bool account_scheduler_cost = false;

  /// Push-time prefetch hints may evict (StarPU's eager prefetch
  /// allocation). Off by default: hints then only fill free space. Turning
  /// this on reproduces the paper's DMDAR prefetch/eviction conflict in
  /// full strength (see abl_push_prefetch).
  bool hints_may_evict = false;

  /// Seed forwarded to Scheduler::prepare.
  std::uint64_t seed = 42;

  /// Watchdog ceilings: a run that processes more than `max_events` events
  /// or passes `max_sim_time_us` of simulated time throws
  /// BudgetExceededError (with a recent-event excerpt) instead of looping
  /// forever on a buggy scheduler or fault plan. 0 = unlimited.
  std::uint64_t max_events = 0;
  double max_sim_time_us = 0.0;

  /// Seeded jitter on the transfer-retry backoff (the n-th failed attempt
  /// re-enters its queue after min(20 * 2^(n-1), 2000) microseconds): each
  /// backoff is multiplied by (1 + retry_jitter * u) with u drawn uniformly
  /// from [0, 1) by a dedicated RNG (seeded from `seed`), so concurrent
  /// failed fetches stop retrying in lockstep. 0 (the default) draws
  /// nothing and keeps runs byte-identical to the deterministic schedule.
  double retry_jitter = 0.0;

  /// Remote-fetch timeout (multi-node platforms): a network fetch that has
  /// not landed after `fetch_timeout_factor` x its modeled end-to-end
  /// transfer time misses its deadline — the source node accrues suspicion
  /// and the fetch is hedged to an alternate holder (a cached copy on
  /// another node, or the home node again once its link heals). 0 (the
  /// default) disables timeouts, hedging and the suspicion detector; link
  /// faults in the plan then degrade/park transfers but nothing reroutes.
  double fetch_timeout_factor = 0.0;

  /// Cap on hedge re-issues per fetch; past it the fetch falls back to
  /// deadline re-arming with the transfer-retry exponential backoff until
  /// the original delivery lands or the source node is declared lost.
  /// 0 detects timeouts (suspicion) but never hedges.
  std::uint32_t max_fetch_hedges = 2;

  /// Suspicion confirm window: a node that stays suspected this long
  /// without a single successful delivery escalates to the destructive
  /// node-loss recovery (fail_node). 0 (the default) never escalates —
  /// suspicion then only steers placement until the partition heals.
  double suspicion_confirm_window_us = 0.0;

  /// Task-progress checkpointing: every `checkpoint_interval_us` of a task's
  /// compute time (or, with `checkpoint_fraction` in (0,1), at that fraction
  /// of each task's duration) the worker starts a progress snapshot, so a
  /// permanent GPU loss re-runs only the work since the last checkpoint.
  /// Each snapshot drains the task's output state host-bound on the
  /// write-back channel in the background — the overhead is bus time that
  /// competes with real write-backs, not a compute stall — and the progress
  /// only becomes durable when the drain completes. 0 = off.
  double checkpoint_interval_us = 0.0;
  double checkpoint_fraction = 0.0;

  /// Replication-aware placement: when the armed fault plan contains a
  /// permanent GPU loss, keep a second replica of the hottest shared data
  /// (ranked by remaining planned uses) on a different GPU. Replicas fill
  /// free memory only, count against M, are shed first under pressure, and
  /// become eviction-protected while they are the sole surviving copy after
  /// a loss. A no-op without a fault plan that loses GPUs.
  bool replicate_hot = false;

  /// Elastic autoscaling (multi-node platforms): number of nodes that serve
  /// from t=0; the remaining nodes start inactive (GPUs idle, data homed on
  /// them re-homed onto the serving set) and can be brought in later with
  /// begin_node_join. 0 (the default) activates every node — the fixed-
  /// topology behaviour, bit-identical to an engine without this knob.
  std::uint32_t initial_active_nodes = 0;

  /// Occupancy-aware GPU sharing: with a positive threshold each GPU runs a
  /// *set* of concurrent kernels, admitted by the occupancy governor while
  /// active_warps + task_warps < threshold * Platform::total_warps (an idle
  /// GPU always admits its first task). Co-running kernels share the device
  /// processor-style: compute rates scale by the warp oversubscription
  /// factor. 0 (the default) keeps the exclusive one-task-per-GPU model,
  /// bit-identical to an engine without this knob. Incompatible with
  /// checkpointing (snapshot boundaries assume a constant compute rate).
  double occupancy_threshold = 0.0;
};

class RuntimeEngine final : private MemoryManager::Observer,
                            private TransferRouter {
 public:
  RuntimeEngine(const core::TaskGraph& graph, const core::Platform& platform,
                core::Scheduler& scheduler, EngineConfig config = {});

  RuntimeEngine(const RuntimeEngine&) = delete;
  RuntimeEngine& operator=(const RuntimeEngine&) = delete;

  /// Runs the whole workload to completion and returns the metrics.
  /// Single-shot: a second call is an error.
  core::RunMetrics run();

  /// Attaches an inspector (invariant checker, run-report collector, ...)
  /// to the run's event stream. Must be called before run(); not owned.
  /// With no inspector attached the event sites cost one branch each.
  void add_inspector(Inspector* inspector);

  /// Attaches the run's fault injector. Must be called before run(); not
  /// owned; one injector serves one run. Without an injector — or with an
  /// empty plan — the run is bit-identical to a fault-free engine.
  void set_fault_injector(FaultInjector* injector);

  // ---- Streaming (serve) mode ----------------------------------------------
  //
  // In a streamed run the graph is the union of every job that may arrive;
  // tasks start *unreleased* and the scheduler (which must accept
  // Scheduler::begin_streaming) may not pop a task before release_job() hands
  // its job over. The serve layer drives arrivals and admission by scheduling
  // callbacks on event_queue() — before run() or from within callbacks — and
  // learns about retirements through set_job_retired_callback.

  /// Enables streaming. `task_job[t]` is the job of task t and
  /// `job_tasks[j]` the tasks of job j, ascending; jobs are numbered densely
  /// 0..job_tasks.size()-1 and every job owns at least one task. Both are
  /// read in place, so they must outlive the engine, like the graph. Must
  /// be called before run().
  void enable_streaming(std::span<const std::uint32_t> task_job,
                        std::span<const std::vector<core::TaskId>> job_tasks);

  /// Releases a pending job: its tasks become eligible, the scheduler gets
  /// notify_job_arrived, and idle GPUs are woken.
  void release_job(std::uint32_t job);

  /// Sheds a pending (never released) job: its tasks will never run but count
  /// as completed so the run can terminate.
  void shed_job(std::uint32_t job);

  /// `callback(job)` fires through a zero-delay event after the last task of
  /// `job` completes (admission re-check, closed-loop refill, ...).
  void set_job_retired_callback(std::function<void(std::uint32_t)> callback);

  // ---- SLO tiers & cross-job batching (src/slo) ---------------------------
  //
  // Fusion merges still-queued member jobs into a just-admitted leader of
  // the same template: member task i rides leader task i (template order) —
  // one launch per pair at base × duration_scale (shared loads counted
  // once), with per-member completion and retirement published when the
  // leader task finishes. Riders never reach the scheduler. Any fault or
  // topology change unfuses every active batch first, so recovery and
  // replay see member granularity. Dormant (and byte-identical) until the
  // first fuse_jobs / add_eviction_veto call.

  /// Fuses `members` (pending jobs of the leader's template) into released
  /// job `leader`. Requires streaming mode, no dependency edges, and that
  /// no leader task has started yet (call at admission). Leader tasks run
  /// at base × `duration_scale`.
  void fuse_jobs(std::uint32_t leader, std::span<const std::uint32_t> members,
                 double duration_scale);

  /// SLO eviction protection: while the refcount of `data` is positive, no
  /// GPU evicts (or replica-sheds) it. `tier` only annotates the
  /// kTierProtect event.
  void add_eviction_veto(core::DataId data, std::uint32_t tier);
  void remove_eviction_veto(core::DataId data);

  /// The simulation clock/queue; the serve layer schedules arrival and
  /// admission callbacks here.
  [[nodiscard]] EventQueue& event_queue() { return events_; }

  [[nodiscard]] std::uint32_t jobs_in_flight() const {
    return jobs_released_ - jobs_retired_;
  }

  [[nodiscard]] const core::Platform& platform() const { return platform_; }

  // ---- Elastic autoscaling (planned topology change) -----------------------
  //
  // On a multi-node platform whole nodes can leave and join the serving set
  // while the run streams. A *drain* is planned, not reactive: the node
  // stops accepting work, its buffered-but-unstarted tasks are pulled back
  // and requeued on survivors, running tasks and write-backs finish, data
  // homed on the node migrates to surviving hosts over the network model,
  // and only then does the node retire — zero task progress is lost. A
  // *join* warms the incoming node's host cache with the hottest shared
  // data before its GPUs take traffic. Single-node platforms reject both.

  /// Lifecycle of a node in the serving set.
  enum class NodeStatus : std::uint8_t {
    kActive,    ///< serving
    kDraining,  ///< drain fence passed; finishing and migrating
    kInactive,  ///< retired (or never started); may rejoin
    kWarming,   ///< joining; host cache warming up
    kLost,      ///< killed by a fault plan's node loss
  };

  /// Starts a graceful drain of `node` (must be kActive, and not the last
  /// serving node). Safe to call from an event callback; the node retires
  /// asynchronously once quiescent.
  void begin_node_drain(core::NodeId node);

  /// Starts bringing `node` (kInactive) into the serving set; its GPUs take
  /// traffic once the warm-up fills land.
  void begin_node_join(core::NodeId node);

  [[nodiscard]] NodeStatus node_status(core::NodeId node) const {
    return node_status_.empty() ? NodeStatus::kActive : node_status_[node];
  }

  /// Nodes currently serving (kActive).
  [[nodiscard]] std::uint32_t active_node_count() const {
    return active_node_count_;
  }

 private:
  /// One member of a GPU's co-running kernel set (occupancy mode only).
  struct RunningTask {
    core::TaskId task;
    /// Solo-rate compute time still owed. Accrued at every membership
    /// change: elapsed wall time is divided by the sharing slowdown in
    /// force since the last change.
    double remaining_solo_us;
    std::uint32_t warps;  ///< governor-clamped footprint
  };

  struct GpuState {
    std::deque<core::TaskId> buffer;             ///< popped, not yet started
    std::deque<core::DataId> hint_queue;         ///< push-time prefetch hints
    core::TaskId running = core::kInvalidTask;
    /// Concurrent kernels on this device (occupancy mode; `running` stays
    /// kInvalidTask then). Membership changes bump occ_epoch so finish
    /// events scheduled under an older rate turn stale and are ignored.
    std::vector<RunningTask> running_set;
    std::uint64_t occ_epoch = 0;
    double occ_last_update_us = 0.0;
    /// Head task the governor last rejected; suppresses repeated rejection
    /// events until a release frees warps (or the head changes).
    core::TaskId occ_blocked_head = core::kInvalidTask;
    bool alive = true;           ///< false after a scripted GPU loss
    /// False while the GPU's node is outside the serving set (draining,
    /// drained, warming): the device is intact but takes no new work.
    bool active = true;
    bool starved = false;        ///< scheduler had nothing for us last time
    bool assembly_active = false;
    bool scratch_reserved = false;  ///< output buffer of the head task
    std::vector<core::DataId> assembly_pins;
    /// Tasks that finished here whose retirement is not durable yet (output
    /// write-back still draining). Only tracked on dependency-gated runs.
    std::vector<core::TaskId> undurable;
    double sched_busy_until_us = 0.0;
    double running_until_us = 0.0;  ///< scheduled end of the running task
    double assembly_since_us = 0.0; ///< when the head task began assembling
    double busy_us = 0.0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t loads = 0;
    std::uint64_t bytes_loaded = 0;
    std::uint64_t peer_loads = 0;
    std::uint64_t bytes_from_peers = 0;
    std::uint64_t bytes_written_back = 0;
    std::uint64_t evictions = 0;
    std::unique_ptr<MemoryManager> memory;
  };

  void fill_buffer(core::GpuId gpu);
  void begin_assembly(core::GpuId gpu);

  // ---- Dependency gating (graph_.has_dependencies()) ----------------------
  //
  // A task is *enabled* when every predecessor has retired. Retirement is
  // announced optimistically when the predecessor finishes computing; it
  // becomes durable when its output write-back drains (immediately for
  // tasks without outputs). A GPU loss un-retires its completed-but-undrained
  // tasks: they re-run, and enablements they granted are revoked until the
  // re-run retires (see unretire_task).

  /// Announces `task`'s retirement: releases its out-edges, enables
  /// successors whose last predecessor it was, unparks waiting orphans and
  /// wakes the workers.
  void retire_task(core::GpuId gpu, core::TaskId task);
  /// Counts one finished task of its job; the last one retires the job.
  void count_job_task_done(core::TaskId task);

  /// Rolls back the non-durable completion of `task` on dead `gpu`: its
  /// completion counters unwind, enablements it granted are revoked, and it
  /// re-enters the reclaim queue to re-run on a survivor.
  void unretire_task(core::GpuId gpu, core::TaskId task);

  /// Pulls a just-revoked `task` out of whichever survivor pipeline buffered
  /// it and parks it. Without this a revoked buffer head would stall its GPU
  /// while the un-retired predecessor queues *behind* it — a deadlock, since
  /// only the head of a pipeline can start. `lost_gpu` is the dead GPU whose
  /// un-retirement triggered the revocation (reclaim attribution).
  void eject_revoked(core::GpuId lost_gpu, core::TaskId task);
  /// Unpins the inputs of `gpu`'s assembling head and releases its scratch.
  void abandon_assembly(core::GpuId gpu, core::TaskId head);

  /// Issues queued push-time prefetch hints while the GPU has free memory
  /// (hints never evict); called whenever memory is freed.
  void pump_hints(core::GpuId gpu);
  void try_start(core::GpuId gpu);
  void start_task(core::GpuId gpu, core::TaskId task);
  void finish_task(core::GpuId gpu, core::TaskId task);
  /// Everything that happens when `task` completes on `gpu` — counters,
  /// write-back, scheduler/streaming/dependency notifications, worker
  /// wake-ups. Shared by the exclusive and occupancy completion paths.
  void complete_task(core::GpuId gpu, core::TaskId task);

  // ---- Occupancy-aware sharing (config_.occupancy_threshold > 0) ----------
  //
  // Co-running kernels progress processor-sharing style: each owes
  // remaining solo-rate compute time, and wall time is charged at
  // slowdown = max(1, active_warps / total_warps) — warp oversubscription
  // slows every resident kernel uniformly; under-subscription runs at the
  // solo rate (SMs are not magically faster with company). Every
  // membership change accrues progress at the old rate, bumps the epoch
  // (invalidating in-flight finish events) and reschedules completions at
  // the new rate.

  [[nodiscard]] bool has_running_work(const GpuState& state) const {
    return occupancy_active_ ? !state.running_set.empty()
                             : state.running != core::kInvalidTask;
  }
  [[nodiscard]] bool is_running_here(const GpuState& state,
                                     core::TaskId task) const;
  [[nodiscard]] double occ_slowdown(const GpuState& state) const;
  /// Charges wall time since the last membership change into every
  /// co-runner's remaining work (and the GPU's busy_us).
  void occ_accrue(core::GpuId gpu);
  /// Bumps the epoch and schedules a finish event per co-runner at the
  /// current sharing rate.
  void occ_reschedule(core::GpuId gpu);
  void occ_finish_task(core::GpuId gpu, core::TaskId task,
                       std::uint64_t epoch);
  /// Orphans the whole running set of a dead GPU (fault paths) and resets
  /// the governor's load; progress was already accrued incrementally.
  void occ_reclaim_running(core::GpuId gpu, std::vector<core::TaskId>& orphans);

  void retry_starved();
  [[noreturn]] void throw_deadlock() const;
  [[nodiscard]] std::string format_engine_state() const;
  /// The "serving:" line of the watchdog and deadlock messages ("" unless
  /// streaming).
  [[nodiscard]] std::string format_serving_state() const;

  // Fault-injection recovery paths.
  void schedule_faults();
  void attach_fault_hooks();
  void fail_gpu(core::GpuId gpu);
  /// Marks `gpu` dead and empties its pipeline: the running task (or
  /// co-running set) and every buffered task join `orphans`, in pop order.
  void stop_gpu(core::GpuId gpu, std::vector<core::TaskId>& orphans);
  /// Hands one orphan taken from dead `gpu` back for re-dispatch.
  void reclaim_orphan(core::GpuId gpu, core::TaskId task);
  /// Un-retires the completions of dead `gpu` whose write-back never drained.
  void unretire_undurable(core::GpuId gpu);
  /// Unplanned whole-node loss (fault plan `node_losses`): kills every GPU of
  /// the node in one recovery pass (single kNodeLost event, one
  /// notify_node_lost) and instantly re-homes its host shards — host data is
  /// modeled as durably backed, so only device-side progress is lost.
  void fail_node(core::NodeId node);
  void apply_capacity_shock(core::GpuId gpu, std::uint64_t capacity_bytes);

  // Elastic autoscaling internals (topology_active_ only).
  /// Home node of `data` after drain migrations / node losses re-homed it.
  [[nodiscard]] core::NodeId home_node(core::DataId data) const {
    return home_override_.empty() ? platform_.home_node_of(data)
                                  : home_override_[data];
  }
  /// Starts migrating every shard homed on draining `node` to active homes
  /// (round-robin), riding the node's PCI-out + net egress like a remote
  /// fetch in reverse. Completion re-homes the shard.
  void start_data_migrations(core::NodeId node);
  /// Retires `node` if its drain is complete: every GPU idle and quiescent,
  /// no in-flight node fetch, all migrations landed. Called from every
  /// drain-progress site (task finish, write-back drain, data landed,
  /// migration done).
  void maybe_finish_drain(core::NodeId node);
  void finish_node_drain(core::NodeId node);
  /// Serving nodes, the round-robin targets of re-homed shards (sets up the
  /// home override on first use).
  [[nodiscard]] std::vector<core::NodeId> serving_nodes_for_rehome();
  /// True if an alive, active GPU serves outside `node`.
  [[nodiscard]] bool serves_outside(core::NodeId node) const;
  /// Pulls work into every alive, active GPU and tries to start it.
  void wake_serving_gpus();
  /// Lands one warm-up fill on a joining node; activates it when the last
  /// fill (or none were needed) is in.
  void finish_warm_fill(core::NodeId node, core::DataId data,
                        std::uint64_t bytes);
  void activate_node(core::NodeId node, std::uint32_t fills);

  // Proactive fault tolerance (checkpointing / replication).
  [[nodiscard]] bool checkpointing_enabled() const {
    return config_.checkpoint_interval_us > 0.0 ||
           config_.checkpoint_fraction > 0.0;
  }
  /// Snapshot payload of `task` (its output state) and the bus time its
  /// background drain occupies on the write-back channel.
  [[nodiscard]] std::uint64_t checkpoint_payload_bytes(core::TaskId task) const;
  [[nodiscard]] double checkpoint_cost_us(core::TaskId task) const;
  /// Starts the background drain at a snapshot boundary; the progress
  /// becomes durable in commit_checkpoint when the drain completes.
  void initiate_checkpoint(core::GpuId gpu, core::TaskId task,
                           double fraction);
  void commit_checkpoint(core::GpuId gpu, core::TaskId task, double fraction);
  /// Proactively replicates the hottest sole-copy shared data into free
  /// memory of a second GPU; called from task-completion sites.
  void maybe_replicate();
  /// Promotes replicas that became sole surviving copies to eviction-
  /// protected, after `gpu` died.
  void protect_sole_survivors(core::GpuId dead_gpu);
  void release_protection(core::DataId data, bool uses_exhausted);
  /// Takes `task` off its inputs' remaining planned uses (the replication
  /// look-ahead); a data whose uses run out loses its replica protection.
  void consume_planned_uses(core::TaskId task);

  // MemoryManager::Observer
  void on_data_loaded(core::GpuId gpu, core::DataId data) override;
  void on_data_evicted(core::GpuId gpu, core::DataId data) override;
  void on_fetch_started(core::GpuId gpu, core::DataId data,
                        bool demand) override;
  void on_replica_shed(core::GpuId gpu, core::DataId data) override;
  void on_eviction_vetoed(core::GpuId gpu, core::DataId data) override;

  /// Publishes one event to every attached inspector. `publish` is the
  /// guarded entry point (no-op without inspectors); `publish_slow` builds
  /// and fans out the event.
  void publish(InspectorEventKind kind, core::GpuId gpu, std::uint32_t id,
               std::uint64_t bytes = 0, std::uint32_t channel = kNoChannel,
               std::uint32_t aux = 0) {
    if (!inspectors_.empty() || watchdog_log_) {
      publish_slow(kind, gpu, id, bytes, channel, aux);
    }
  }
  void publish_slow(InspectorEventKind kind, core::GpuId gpu, std::uint32_t id,
                    std::uint64_t bytes, std::uint32_t channel,
                    std::uint32_t aux);

  /// Routes bus wire start/end callbacks into kTransferStart/End events.
  void attach_wire_observers();

  // TransferRouter: route a miss over the host bus, or — with NVLink
  // enabled — over the egress port of a peer GPU already holding the data
  // (the replica stays pinned on the source for the duration of the copy).
  void request_transfer(core::GpuId dst, core::DataId data,
                        std::uint64_t bytes, std::function<void()> on_complete,
                        TransferPriority priority) override;
  void promote(core::GpuId dst, core::DataId data) override;

  /// Peer currently holding `data` (lowest id), or kInvalidGpu. On a
  /// cluster, NVLink ports only reach peers of the same node.
  [[nodiscard]] core::GpuId find_peer_holding(core::GpuId dst,
                                              core::DataId data) const;

  // ---- Multi-node cluster routing (platform_.num_nodes > 1) --------------
  //
  // Each node owns a PCI bus, a network egress link and (with outputs or
  // checkpointing) a write-back channel. Data are homed round-robin on the
  // nodes' host memories; a GPU missing data homed elsewhere pays PCI out
  // of the home node, one network hop into its node's host cache, then PCI
  // into the device. Concurrent misses of the same (node, data) join one
  // in-flight network fetch; the fill fans out to every waiter.

  /// Routes a miss of `dst` in cluster mode (see above).
  void request_cluster_transfer(core::GpuId dst, core::DataId data,
                                std::uint64_t bytes,
                                std::function<void()> on_complete,
                                TransferPriority priority);

  /// Sends `data` from node `from`'s host: its PCI bus (addressed to
  /// `pci_port`), then its network egress (to `net_port`), then `delivered`.
  void send_over_network(core::NodeId from, core::GpuId pci_port,
                         core::GpuId net_port, core::DataId data,
                         std::uint64_t bytes, TransferPriority priority,
                         Bus::OnComplete delivered);

  /// The network hop of (node, data) completed: cache the data in the
  /// node's host memory (evicting LRU entries under a bounded budget) and
  /// issue the PCI-in leg for every waiting GPU.
  void host_cache_fill(core::NodeId node, core::GpuId gpu, core::DataId data,
                       std::uint64_t bytes);

  /// Evicts least-recently-used host-cache entries of `node` until `needed`
  /// more bytes fit in the budget.
  void host_cache_evict_for(core::NodeId node, core::GpuId gpu,
                            std::uint64_t needed);

  /// The write-back channel serving `gpu` (per-node on a cluster).
  [[nodiscard]] Bus* writeback_bus_for(core::GpuId gpu);

  /// Copies `data` from `source` to `dst` over the source's NVLink egress
  /// port, keeping the source replica pinned for the duration.
  void start_peer_copy(core::GpuId source, core::GpuId dst, core::DataId data,
                       std::uint64_t bytes,
                       std::function<void()> on_complete);

  const core::TaskGraph& graph_;
  core::Platform platform_;
  core::Scheduler& scheduler_;
  EngineConfig config_;
  /// Largest task footprint (inputs + output scratch): the smallest memory
  /// every task fits in, so capacity shocks are clamped to it.
  std::uint64_t max_footprint_ = 0;

  EventQueue events_;
  Bus bus_;
  /// Output write-backs travel host-bound on their own channel: PCIe is
  /// full duplex, and the paper notes output "can be transferred
  /// concurrently with data input". Checkpoint snapshots drain on the same
  /// channel. Only created when the graph has outputs or checkpointing is
  /// on.
  std::unique_ptr<Bus> writeback_bus_;
  std::vector<std::unique_ptr<Bus>> nvlink_egress_;  ///< one per GPU
  /// Origin of the in-flight fetch of (gpu, data): host or peer.
  std::vector<std::vector<std::uint8_t>> fetch_from_peer_;

  // Cluster state (empty on a single-node platform, which keeps the
  // single-bus code path bit-identical).
  struct NodeWaiter {
    core::GpuId gpu;
    std::function<void()> on_complete;
    TransferPriority priority;
  };
  struct NodeState {
    std::unique_ptr<Bus> pci;        ///< this node's host<->GPU bus
    std::unique_ptr<Bus> writeback;  ///< outputs/checkpoints, when needed
    std::unique_ptr<Bus> net;        ///< network egress towards other nodes
    /// Host cache of *remote* data (home data is always available).
    std::vector<std::uint8_t> cached;
    std::vector<std::uint64_t> last_use;     ///< LRU stamps
    std::vector<std::uint8_t> net_fetching;  ///< in-flight network fetch
    std::vector<std::vector<NodeWaiter>> waiters;
    std::uint64_t cached_bytes = 0;
    std::uint64_t use_clock = 0;
  };
  bool cluster_active_ = false;
  std::vector<NodeState> nodes_;
  std::unique_ptr<LruEviction> default_policy_;
  std::vector<GpuState> gpus_;
  std::vector<bool> popped_;
  std::uint32_t completed_ = 0;
  double last_completion_us_ = 0.0;
  double pop_wall_us_ = 0.0;
  double prepare_wall_us_ = 0.0;
  std::vector<Inspector*> inspectors_;
  bool ran_ = false;

  // Fault-injection state. All dormant (and cost-free) without an injector.
  FaultInjector* injector_ = nullptr;
  /// Orphans the scheduler declined to re-own; served to surviving GPUs
  /// ahead of further pop_task calls.
  std::deque<core::TaskId> reclaimed_;
  std::uint32_t alive_gpus_ = 0;
  core::FaultMetrics fault_metrics_;

  // Elastic autoscaling state. Allocated only when the topology actually
  // changes (initial_active_nodes, a drain/join call, or a node-loss fault);
  // fixed-topology runs never touch it and stay bit-identical.
  bool topology_active_ = false;
  std::vector<NodeStatus> node_status_;
  std::uint32_t active_node_count_ = 0;
  /// Per-data home override (migrations / node losses re-home shards);
  /// empty until the first re-homing.
  std::vector<core::NodeId> home_override_;
  /// Per-node count of in-flight drain migrations.
  std::vector<std::uint32_t> drain_migrations_left_;
  /// Per-node drain fence time (kNodeDrained latency aux).
  std::vector<double> drain_start_us_;
  /// Per-node count of in-flight join warm-up fills.
  std::vector<std::uint32_t> warm_fills_left_;
  /// Lazily sizes the autoscaling vectors on first topology change.
  void ensure_topology_state();

  // Checkpointing state (allocated only when the policy is on).
  /// Last committed progress fraction per task, in [0,1).
  std::vector<double> checkpoint_progress_;
  /// Recovery-latency bookkeeping: loss time per orphaned task, or <0.
  std::vector<double> orphan_lost_at_us_;

  // Replication state (allocated only when replication is active).
  bool replication_active_ = false;
  /// Uncompleted consumers per data — the DARTS/LUF-style look-ahead that
  /// ranks replication candidates.
  std::vector<std::uint32_t> remaining_uses_;
  /// GPU whose copy of the data is currently eviction-protected as the
  /// sole survivor, or kInvalidGpu.
  std::vector<core::GpuId> protected_on_;

  // Occupancy-sharing state. Dormant — and cost-free on the hot paths —
  // with the default threshold of 0.
  bool occupancy_active_ = false;
  std::unique_ptr<occupancy::OccupancyGovernor> governor_;

  // ---- Network-fault state (link faults, hedged fetches, suspicion) -------
  //
  // Armed only when the fault plan carries link_faults or
  // fetch_timeout_factor is set on a cluster; dormant runs never allocate
  // any of it and stay byte-identical.
  bool netfault_active_ = false;
  struct LinkWindow {
    core::NodeId src = 0;
    core::NodeId dst = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    double factor = 1.0;
    double straggler_us = 0.0;
    bool partition = false;
    bool active = false;  ///< inside [start_us, end_us) right now
  };
  std::vector<LinkWindow> link_windows_;
  /// Net requests a partition filter took off the wire; re-submitted on the
  /// owning node's egress when the window closes.
  struct ParkedNetRequest {
    core::NodeId src_node = 0;
    core::GpuId dst = 0;
    core::DataId data = 0;
    std::uint64_t bytes = 0;
    Bus::OnComplete on_complete;
  };
  std::vector<ParkedNetRequest> parked_net_;
  /// In-flight network fetch bookkeeping per (destination node, data).
  /// `generation` invalidates stale deadline events; `hedges` counts
  /// re-issues against max_fetch_hedges.
  struct NetFetchState {
    core::NodeId source = 0;
    std::uint32_t generation = 0;
    std::uint32_t hedges = 0;
    std::uint32_t retries = 0;  ///< deadline re-arms past the hedge cap
    std::uint8_t timed_out = 0;
  };
  std::vector<std::vector<NetFetchState>> net_fetch_;  ///< [node][data]
  std::vector<std::uint8_t> node_suspected_;
  std::vector<std::uint32_t> node_timeout_count_;
  /// Seeded jitter draws for the retry backoff (only consulted when
  /// config_.retry_jitter > 0).
  std::uint64_t jitter_state_ = 0;

  /// Allocates the netfault state, installs net-bus cost hooks and
  /// partition filters, and schedules the link-fault boundary events.
  void arm_netfaults();
  [[nodiscard]] const LinkWindow* active_link_fault(core::NodeId a,
                                                    core::NodeId b) const;
  [[nodiscard]] bool link_partitioned(core::NodeId a, core::NodeId b) const {
    const LinkWindow* window = active_link_fault(a, b);
    return window != nullptr && window->partition;
  }
  void apply_link_boundary(std::size_t index, bool start);
  /// Issues the PCI-out + net chain of a network fetch of `data` from
  /// `source` towards `dst` (on node `dest`); shared by the original fetch
  /// and hedge re-issues.
  void issue_net_fetch(core::NodeId dest, core::NodeId source, core::GpuId dst,
                       core::DataId data, std::uint64_t bytes,
                       TransferPriority priority = TransferPriority::kHigh);
  /// Delivery-side gate: the winning delivery fills the host cache, a
  /// losing duplicate publishes kHedgeWasted instead.
  void net_fetch_delivered(core::NodeId dest, core::NodeId source,
                           core::GpuId dst, core::DataId data,
                           std::uint64_t bytes);
  [[nodiscard]] double fetch_deadline_us(std::uint64_t bytes) const;
  void arm_fetch_deadline(core::NodeId dest, core::DataId data,
                          std::uint64_t bytes, double delay_us);
  void on_fetch_deadline(core::NodeId dest, core::DataId data,
                         std::uint64_t bytes, std::uint32_t generation);
  /// Best alternate holder for a hedge: an active, unpartitioned node with
  /// the data in host reach (home or cached); NodeId max (no reachable
  /// holder) when every holder is unreachable right now.
  [[nodiscard]] core::NodeId pick_hedge_source(core::NodeId dest,
                                               core::DataId data,
                                               core::NodeId prefer_not) const;
  void suspect_node(core::NodeId node);
  void clear_suspicion(core::NodeId node);
  void escalate_suspicion(core::NodeId node, std::uint32_t epoch);
  /// Suspicion epoch per node: bumped on clear so a pending confirm-window
  /// event from an earlier suspicion cannot escalate a healed node.
  std::vector<std::uint32_t> suspicion_epoch_;

  /// Watchdog: when a budget is set, keep the last raw events for the
  /// BudgetExceededError excerpt.
  bool watchdog_log_ = false;
  RecentEvents watchdog_recent_;

  // Dependency (DAG) state. All dormant — and cost-free on the hot paths —
  // when the graph carries no dependency edges.
  bool deps_active_ = false;
  std::vector<std::uint32_t> dep_pending_;  ///< unretired predecessors
  std::vector<bool> dep_enabled_;   ///< all predecessors retired
  std::vector<bool> dep_retired_;   ///< retirement announced, not rolled back
  std::vector<bool> dep_completed_; ///< finished at least once, not rolled back
  std::vector<bool> dep_parked_;    ///< held engine-side until re-enabled
  std::vector<bool> dep_revoked_;   ///< enablement revoked by an un-retirement
  std::vector<bool> dep_rerun_;     ///< re-running: suppress duplicate notify
  /// GPU whose pipeline a revoked task was ejected from (kInvalidGpu
  /// otherwise). The scheduler still believes the task sits in that GPU's
  /// buffer, so its eventual completion is reported against this GPU even if
  /// the reclaim queue re-served it elsewhere.
  std::vector<core::GpuId> dep_eject_origin_;
  std::vector<core::TaskId> dep_enabled_scratch_;

  // Streaming (serve) mode state. All dormant without enable_streaming.
  enum class JobState : std::uint8_t { kPending, kReleased, kShed, kRetired };
  bool streaming_ = false;
  std::uint32_t num_jobs_ = 0;
  std::span<const std::uint32_t> task_job_;        ///< task -> job
  std::span<const std::vector<core::TaskId>> job_tasks_;  ///< job -> tasks
  std::vector<std::uint32_t> job_remaining_;       ///< uncompleted task count
  std::vector<JobState> job_state_;
  std::vector<bool> released_;
  std::uint32_t jobs_released_ = 0;
  std::uint32_t jobs_retired_ = 0;
  std::function<void(std::uint32_t)> job_retired_cb_;

  // SLO state (src/slo). Dormant — and cost-free on the hot paths — until
  // the first fuse_jobs or add_eviction_veto call.
  bool slo_active_ = false;
  /// Active batches: leader job + fused member jobs (cleared by
  /// unfuse_all; retired groups are skipped there via job_state_).
  struct FusionGroup {
    std::uint32_t leader;
    std::vector<std::uint32_t> members;
  };
  std::vector<FusionGroup> fusion_groups_;
  /// Rider tasks carried by each fused leader task (empty = unfused).
  std::vector<std::vector<core::TaskId>> fused_riders_;
  /// Duration multiplier of each fused leader task (0 = unfused).
  std::vector<double> fused_scale_;
  /// Per-data SLO protection refcount (one per protecting in-flight job).
  std::vector<std::uint32_t> veto_count_;
  /// kEvictionVetoed debounce: at most one event per data per protection
  /// window.
  std::vector<std::uint8_t> veto_reported_;
  void ensure_slo_state();
  /// Breaks every active batch (fault/drain paths): unstarted rider tasks
  /// re-enter dispatch through the reclaim queue at member granularity.
  void unfuse_all();
  /// Warp footprint the occupancy governor should charge for `task`:
  /// summed over the batch for a fused leader.
  [[nodiscard]] std::uint32_t effective_task_warps(core::TaskId task) const;
  /// Publishes one rider's synthetic admit/start/end/complete sequence and
  /// retires its member job if it was the last task.
  void complete_rider(core::GpuId gpu, core::TaskId rider);
};

}  // namespace mg::sim
