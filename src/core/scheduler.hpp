// Scheduler interface — the pull API a StarPU scheduling policy sees.
//
// Lifecycle, per run:
//   1. prepare(graph, platform, seed)   — static phase (HFP packing, hMETIS
//      partitioning, DMDA push-side allocation...). The engine measures its
//      wall-clock time; the paper's "with / without scheduling time" curves
//      toggle whether it is charged to the simulated makespan.
//   2. pop_task(gpu, memory)            — called whenever a GPU worker has
//      room in its task pipeline. Returning kInvalidTask means "nothing for
//      this GPU right now"; the engine will ask again when global state
//      changes (a task completes or a data lands somewhere), unless
//      may_pop(gpu) says that asking cannot succeed yet.
//   3. notify_* hooks                   — runtime feedback used by dynamic
//      policies (DARTS's dataNotInMem bookkeeping, Ready's residency view).
//
// Schedulers are single-run objects: create a fresh instance per simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/eviction.hpp"
#include "core/ids.hpp"
#include "core/memory_view.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"

namespace mg::core {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// One-time static phase. `seed` drives every random choice the policy
  /// makes (tie breaking, stealing order) for reproducibility.
  virtual void prepare(const TaskGraph& graph, const Platform& platform,
                       std::uint64_t seed) = 0;

  /// Next task for `gpu`, or kInvalidTask if none available for it now.
  /// Each task must be returned exactly once across all GPUs.
  [[nodiscard]] virtual TaskId pop_task(GpuId gpu, const MemoryView& memory) = 0;

  /// O(1) pre-check of a pull: false promises that pop_task(gpu, ·) would
  /// return kInvalidTask for every memory view *and* change no scheduler
  /// state (no random draw, no steal, no bookkeeping), so the engine may
  /// skip the call. A starved GPU is polled after every task end and every
  /// data load; this lets it skip the polls that cannot succeed. Skipped
  /// polls are neither timed nor charged as scheduling cost. A Debug build
  /// makes the call anyway and checks that it returned nothing. Default:
  /// always poll.
  [[nodiscard]] virtual bool may_pop(GpuId gpu) const {
    (void)gpu;
    return true;
  }

  // ---- Streaming (serve mode) lifecycle ------------------------------------
  //
  // In a streamed run the task graph is the union of every job that *may*
  // arrive; tasks only become eligible when their job is released. The engine
  // calls begin_streaming() once, before prepare(); a scheduler that returns
  // true must treat every task as unsubmitted until notify_job_arrived hands
  // it over, and must never pop an unsubmitted task. prepare() still receives
  // the full union graph (sizes, consumers) for its data structures — it just
  // may not schedule ahead of arrivals.

  /// Opt into streaming. Return false (the default) and the engine refuses to
  /// stream with this scheduler.
  [[nodiscard]] virtual bool begin_streaming() { return false; }

  /// Job `job` arrived: `tasks` (ascending union-graph ids) are now eligible.
  /// Called between pops, never re-entrantly.
  virtual void notify_job_arrived(std::uint32_t job,
                                  std::span<const TaskId> tasks) {
    (void)job;
    (void)tasks;
  }

  // ---- Dependencies (DAG workloads) lifecycle ------------------------------
  //
  // When the task graph carries dependency edges (TaskGraph::
  // has_dependencies), tasks only become runnable when every predecessor has
  // retired. The engine calls begin_dependencies() once, before prepare(); a
  // scheduler that returns true must treat every task with unretired
  // predecessors as not-yet-poppable, and adopt the ready frontier
  // incrementally through notify_task_retired. The engine enforces the gate
  // (popping a non-enabled task is an engine error), so a conservative
  // scheduler may simply hold tasks back until they are announced enabled.

  /// Opt into dependency gating. Return false (the default) and the engine
  /// refuses to run a DAG workload with this scheduler.
  [[nodiscard]] virtual bool begin_dependencies() { return false; }

  /// `task` retired (all its effects durable); `enabled_successors` lists the
  /// tasks whose last unretired predecessor it was (ascending) — they are now
  /// runnable. In a streamed run a successor is announced only when its job
  /// has also arrived. Called between pops, never re-entrantly.
  virtual void notify_task_retired(TaskId task,
                                   std::span<const TaskId> enabled_successors) {
    (void)task;
    (void)enabled_successors;
  }

  /// Dispatch priority of `job` (serve::JobSpec::priority — higher first).
  /// Announced by the serving engine once per job, before any arrival, so a
  /// scheduler can order its pops by it. Default: ignore (FIFO dispatch).
  virtual void notify_job_priority(std::uint32_t job, std::uint32_t priority) {
    (void)job;
    (void)priority;
  }

  /// Every task of job `job` completed; purely informational (queue pruning,
  /// per-job accounting).
  virtual void notify_job_retired(std::uint32_t job) { (void)job; }

  virtual void notify_task_complete(GpuId gpu, TaskId task) {
    (void)gpu;
    (void)task;
  }

  /// Occupancy-aware GPU sharing: the warp load of `gpu` changed (a task was
  /// admitted onto or finished on it). `active_warps` is the load after the
  /// change and `free_warps` the remaining budget under the admission
  /// threshold, so a packing-aware scheduler can prefer small tasks for
  /// partially-busy GPUs. Only invoked while sharing is enabled
  /// (EngineConfig::occupancy_threshold > 0); exclusive runs never see it.
  virtual void notify_occupancy(GpuId gpu, std::uint32_t active_warps,
                                std::uint32_t free_warps) {
    (void)gpu;
    (void)active_warps;
    (void)free_warps;
  }
  virtual void notify_data_loaded(GpuId gpu, DataId data) {
    (void)gpu;
    (void)data;
  }
  virtual void notify_data_evicted(GpuId gpu, DataId data) {
    (void)gpu;
    (void)data;
  }

  /// Fault injection: `gpu` died permanently. `orphaned` lists the tasks
  /// the engine reclaimed from its pipeline (popped but never finished, in
  /// pop order); each must eventually run on a surviving GPU. pop_task is
  /// never called for `gpu` again. Return true to take ownership of the
  /// orphans (they must be re-returned from pop_task, e.g. after re-planning
  /// or stealing-style redistribution); return false and the engine requeues
  /// them itself, serving them to survivors ahead of further pops. Default:
  /// decline.
  [[nodiscard]] virtual bool notify_gpu_lost(GpuId gpu,
                                             std::span<const TaskId> orphaned) {
    (void)gpu;
    (void)orphaned;
    return false;
  }

  // ---- Planned topology change (elastic autoscaling) -----------------------
  //
  // On a multi-node platform the engine can retire whole nodes while serving
  // (graceful drain) and bring nodes in (join after warm-up). These hooks
  // extend the notify_gpu_lost family to node granularity; single-node runs
  // never see them.

  /// Node `node` (its GPUs listed in `gpus`) stops serving: a planned drain
  /// fence just pulled its popped-but-unstarted tasks back as `orphaned`
  /// (pop order per GPU), and pop_task will not be called for these GPUs
  /// until a later notify_node_added. Unlike a GPU loss the devices are
  /// intact — running tasks finish and nothing re-runs. Also announced once
  /// at run start (empty `orphaned`) for nodes that begin outside the
  /// serving set (EngineConfig::initial_active_nodes). Return true to adopt
  /// the orphans (re-return them from pop_task on serving GPUs); false and
  /// the engine requeues them itself. Default: decline.
  [[nodiscard]] virtual bool notify_node_draining(
      NodeId node, std::span<const GpuId> gpus,
      std::span<const TaskId> orphaned) {
    (void)node;
    (void)gpus;
    (void)orphaned;
    return false;
  }

  /// Node `node` joined the serving set (fresh capacity, or a drained node
  /// returning): its GPUs accept pop_task calls again, starting empty.
  virtual void notify_node_added(NodeId node, std::span<const GpuId> gpus) {
    (void)node;
    (void)gpus;
  }

  /// Unplanned whole-node loss: every GPU of `node` died at once and
  /// `orphaned` aggregates the tasks reclaimed from all of them. Return true
  /// to adopt the orphans (as for notify_gpu_lost). The default degrades
  /// gracefully for loss-aware schedulers by forwarding one notify_gpu_lost
  /// per dead GPU, handing the full orphan list to the first.
  [[nodiscard]] virtual bool notify_node_lost(NodeId node,
                                              std::span<const GpuId> gpus,
                                              std::span<const TaskId> orphaned) {
    (void)node;
    // Only the first forward carries the orphans, so only its answer decides
    // who owns them — mixing answers in would let the engine and the
    // scheduler both serve the same task.
    bool adopted = false;
    for (std::size_t i = 0; i < gpus.size(); ++i) {
      const std::span<const TaskId> part =
          i == 0 ? orphaned : std::span<const TaskId>{};
      const bool answer = notify_gpu_lost(gpus[i], part);
      if (i == 0) adopted = answer;
    }
    return adopted;
  }

  /// Suspicion-based failure detection (network faults): remote fetches from
  /// `node` timed out past the detector threshold, so the node is *suspected*
  /// — possibly partitioned, possibly lost. Unlike notify_node_lost nothing
  /// destructive happened: the node's GPUs keep serving their own queues, but
  /// placement should steer away (stop stealing from it, raise its distance)
  /// until notify_node_suspicion_cleared re-integrates it, or the engine
  /// escalates to the notify_node_lost path. Default: ignore.
  virtual void notify_node_suspected(NodeId node) { (void)node; }

  /// A delivery from `node` landed (the partition healed or the timeouts
  /// were transient): placement may treat it as healthy again.
  virtual void notify_node_suspicion_cleared(NodeId node) { (void)node; }

  /// Replay divergence report. A scheduler replaying a recorded order that
  /// rewired work after losing `gpu` (see notify_gpu_lost) describes the
  /// break here: at which index of the dead GPU's recorded order the replay
  /// diverged, and how many recorded-suffix tasks were reassigned to
  /// survivors. Queried by the engine right after notify_gpu_lost; schedulers
  /// that do not replay recorded orders keep the default (no divergence).
  struct ReplayDivergence {
    std::uint32_t divergence_index = 0;  ///< first unexecuted recorded slot
    std::uint32_t reassigned_tasks = 0;  ///< suffix tasks moved to survivors
  };
  [[nodiscard]] virtual std::optional<ReplayDivergence> replay_divergence(
      GpuId gpu) {
    (void)gpu;
    return std::nullopt;
  }

  /// Ordered push-time prefetch hints for `gpu` (StarPU's Algorithm 1 lines
  /// 7-9: "Request data prefetch for D_j on GPU_k"). Queried once after
  /// prepare(); the runtime issues them as *low-priority* transfers whenever
  /// the GPU has free memory, never evicting for them. Default: none.
  [[nodiscard]] virtual std::vector<DataId> prefetch_hints(GpuId gpu) {
    (void)gpu;
    return {};
  }

  /// Custom eviction policy for `gpu`, or nullptr to use the engine default
  /// (LRU, as for all schedulers in the paper except DARTS+LUF). The pointer
  /// must stay valid for the scheduler's lifetime.
  [[nodiscard]] virtual EvictionPolicy* eviction_policy(GpuId gpu) {
    (void)gpu;
    return nullptr;
  }
};

}  // namespace mg::core
