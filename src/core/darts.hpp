// DARTS — Data-Aware Reactive Task Scheduling (Algorithm 5) with the LUF
// ("Least Used in the Future") eviction policy (Algorithm 6). This is the
// paper's primary contribution.
//
// Scheduling side, per GPU request:
//   * if plannedTasks_k is non-empty, pop it;
//   * otherwise scan dataNotInMem_k for the data D maximizing n(D), the
//     number of available tasks that would need no further load if D were
//     brought in ("free" tasks). Ties are broken by total unprocessed
//     consumers, then uniformly at random. All free tasks of the chosen data
//     are planned on this GPU;
//   * if no data frees any task: the 3inputs variant looks for the data
//     enabling the most tasks that are exactly one further load away and
//     returns one of those tasks; otherwise a random available task is
//     returned.
// The full scan reads n(D) from counts kept per GPU instead of counting it.
// Each GPU mirrors which data were present or fetching at its last planning
// round and keeps, under that mirror, an exact n(D) for every data: an
// available task with no unheld input counts toward each of its inputs, one
// with a single unheld input toward that input, one with more toward none.
// A task joining or leaving the available pool updates every GPU's counts,
// and a planning round first reconciles its GPU's mirror with the MemoryView
// it is handed, re-scoring the available consumers of each data whose
// residency changed since. A round then costs one residency query per data
// plus the consumers of the data loaded or evicted in between, with the
// decisions of the per-data count. This answers the paper's first
// future-work item (Section VI): "improve the computational complexity of
// DARTS ... without sacrificing too much on the schedule quality".
// The OPTI variant stops the scan at the first data with n(D) >= 1; the
// threshold variant caps how many data the scan may visit. Both count n(D)
// per visited data and trade schedule quality for decision time (Sections
// V-E/V-F of the paper); the full scan costs less than the threshold
// variant everywhere and less than OPTI on all but the smallest working
// sets (EXPERIMENTS.md, known deviation 4).
//
// Eviction side (LUF): prefer a victim used by no task of the GPU's pipeline
// (taskBuffer), minimizing uses by plannedTasks; otherwise apply Belady's
// rule over the pipeline. Both use counts are kept per GPU and data as the
// two lists change, so a choice reads them per candidate. Planned tasks that
// depended on the evicted data return to the available pool.
//
// Dependency-gated runs (DAG workloads): the shared pool holds exactly the
// *ready frontier* — tasks whose predecessors all retired — maintained
// incrementally by notify_task_retired, so no planning round ever scans
// blocked tasks (they stay kUnsubmitted until enabled). Planning further
// becomes successor-aware: candidate data ties are broken towards the data
// whose freed tasks would *unlock* the most successors (successors one
// retirement away from enablement, weighted by the inputs they share with
// the unlocking task), and the no-free-task fallback picks the available
// task with the highest unlock weight instead of a uniformly random one.
// Independent-task runs never take these paths, so their decisions (and RNG
// draws) are untouched.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/eviction.hpp"
#include "core/ids.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace mg::core {

struct DartsOptions {
  /// Use the LUF eviction policy (otherwise the engine default, LRU).
  bool use_luf = true;

  /// "3inputs": when no data enables a free task, pick the data enabling the
  /// most tasks that are a single additional load away (Section V-E).
  bool three_inputs = false;

  /// "OPTI": stop the data scan at the first data enabling >= 1 free task
  /// (Section V-F).
  bool opti = false;

  /// Cap on the number of candidate data scanned per planning round;
  /// 0 = unlimited ("threshold" variant, Section V-C).
  std::uint32_t scan_threshold = 0;

  /// SLO tier boost (streamed serving): folds announced job priorities into
  /// planning — deps runs add tier_boost × priority to the unlock weight,
  /// scan runs boost each candidate data's consumer score by its best
  /// available consumer's priority and restrict the no-free-task fallback
  /// to the highest-priority tasks. 0 (the default) leaves every decision
  /// and RNG draw untouched; the boost also stays dormant until some job
  /// announces a nonzero priority.
  double tier_boost = 0.0;
};

class DartsScheduler final : public Scheduler, public EvictionPolicy {
 public:
  explicit DartsScheduler(DartsOptions options = {});

  // Scheduler
  [[nodiscard]] std::string_view name() const override { return name_; }
  void prepare(const TaskGraph& graph, const Platform& platform,
               std::uint64_t seed) override;
  [[nodiscard]] TaskId pop_task(GpuId gpu, const MemoryView& memory) override;
  void notify_task_complete(GpuId gpu, TaskId task) override;
  void notify_data_loaded(GpuId gpu, DataId data) override;
  void notify_data_evicted(GpuId gpu, DataId data) override;
  /// GPU loss: the orphans (this GPU's taskBuffer) and its plannedTasks all
  /// return to the shared pool, so survivors re-plan them reactively —
  /// exactly the mechanism Algorithm 6 already uses for eviction fallout.
  [[nodiscard]] bool notify_gpu_lost(GpuId gpu,
                                     std::span<const TaskId> orphaned) override;
  /// Streaming: every task starts kUnsubmitted (absent from the shared
  /// pool); notify_job_arrived moves a job's tasks to kAvailable, where the
  /// reactive planning already picks them up — DARTS needs no placement
  /// decision at arrival time.
  [[nodiscard]] bool begin_streaming() override {
    streaming_ = true;
    return true;
  }
  void notify_job_arrived(std::uint32_t job,
                          std::span<const TaskId> tasks) override;
  /// Streaming dispatch priority (serve::JobSpec::priority, plus any tier
  /// admission weight the serving layer folds in). Only read when
  /// options().tier_boost > 0.
  void notify_job_priority(std::uint32_t job, std::uint32_t priority) override;
  /// Dependencies: the shared pool becomes the ready frontier and planning
  /// turns successor-aware (see the header comment).
  [[nodiscard]] bool begin_dependencies() override {
    deps_ = true;
    return true;
  }
  void notify_task_retired(TaskId task,
                           std::span<const TaskId> enabled_successors) override;
  /// Occupancy hint (GPU sharing): pop_planned then prefers, near the front
  /// of the planned deque, a task whose warp footprint fits the remaining
  /// budget of a partially-busy GPU.
  void notify_occupancy(GpuId gpu, std::uint32_t active_warps,
                        std::uint32_t free_warps) override;
  [[nodiscard]] EvictionPolicy* eviction_policy(GpuId gpu) override {
    (void)gpu;
    return options_.use_luf ? this : nullptr;
  }

  // EvictionPolicy (LUF) — only wired when options_.use_luf.
  void on_load(GpuId gpu, DataId data) override;
  void on_use(GpuId gpu, DataId data) override;
  void on_evict(GpuId gpu, DataId data) override;
  [[nodiscard]] DataId choose_victim(
      GpuId gpu, std::span<const DataId> candidates) override;

  [[nodiscard]] const DartsOptions& options() const { return options_; }

  /// Planned-but-not-popped tasks currently reserved for `gpu` (test hook).
  [[nodiscard]] const std::deque<TaskId>& planned_tasks(GpuId gpu) const {
    return per_gpu_[gpu].planned;
  }

  /// Full scans: the kept n(D) of `data` on `gpu`, exact for the residency
  /// `gpu`'s last planning round saw and for the current available pool
  /// (test hook: the property test checks it against the per-data
  /// definition).
  [[nodiscard]] std::uint32_t free_count(GpuId gpu, DataId data) const {
    return per_gpu_[gpu].free_count[data];
  }

 private:
  enum class TaskState : std::uint8_t {
    kUnsubmitted,  ///< streaming: job not yet arrived — invisible to planning
    kAvailable,    ///< in the shared pool
    kPlanned,      ///< reserved in some GPU's plannedTasks
    kBuffered,     ///< popped into a GPU pipeline (the paper's taskBuffer)
    kDone,
  };

  /// dataNotInMem_k as an intrusive doubly-linked list over data ids, in
  /// *submission order* (removals do not scramble it): the order the scan,
  /// OPTI and threshold variants visit candidates in is part of their
  /// behaviour — a first-enabling-data rule only works when "first" means
  /// something (nearby in the natural task order).
  struct ScanList {
    std::vector<DataId> next;  ///< size num_data+1; last slot = sentinel
    std::vector<DataId> prev;
    std::vector<std::uint8_t> present;
    std::uint32_t count = 0;

    void init(std::uint32_t num_data);
    void remove(DataId data);
    void push_back(DataId data);
    [[nodiscard]] DataId sentinel() const {
      return static_cast<DataId>(present.size());
    }
    [[nodiscard]] DataId first() const { return next[sentinel()]; }
    [[nodiscard]] DataId after(DataId data) const { return next[data]; }
    [[nodiscard]] bool contains(DataId data) const {
      return present[data] != 0;
    }
  };

  struct PerGpu {
    std::deque<TaskId> planned;           ///< plannedTasks_k
    std::vector<TaskId> buffered;         ///< taskBuffer_k, in pop order
    ScanList data_not_in_mem;             ///< scan list, submission order
    std::vector<std::uint64_t> use_stamp; ///< LRU tie-break for LUF
    DataId scan_cursor = kInvalidData;    ///< rotating threshold-scan start

    // LUF only (empty otherwise): per data, the tasks of `buffered` and of
    // `planned` that read it.
    std::vector<std::uint32_t> buffered_uses;
    std::vector<std::uint32_t> planned_uses;

    // Full scans only (empty otherwise):
    std::vector<std::uint8_t> held;       ///< present or fetching, last round
    std::vector<std::uint32_t> free_count;  ///< n(D) under `held`
  };

  /// OPTI and threshold scan part of the list and count per visited data;
  /// the full scan reads the kept counts.
  [[nodiscard]] bool full_scan() const {
    return !options_.opti && options_.scan_threshold == 0;
  }

  /// True if every input of `task` other than `extra` is already loaded or
  /// loading on the GPU behind `memory`.
  [[nodiscard]] bool rest_in_memory(TaskId task, const MemoryView& memory,
                                    DataId extra) const;
  /// The same under `gpu_state`'s held mirror.
  [[nodiscard]] bool rest_held(const PerGpu& gpu_state, TaskId task,
                               DataId extra) const;

  /// n(D) by definition: the available consumers of `data` whose other
  /// inputs are all loaded or loading. The OPTI and threshold partial scans
  /// pay this per visited data; Debug builds audit the kept counts with it.
  [[nodiscard]] std::uint32_t count_free_tasks(DataId data,
                                               const MemoryView& memory) const;

  /// Adds (`add`) or takes out the n(D) contributions of available `task`
  /// under `gpu_state`'s held mirror. With a `skip` data, those it would make
  /// if `skip` were held, except through `skip` itself.
  void tally_free(PerGpu& gpu_state, TaskId task, bool add,
                  DataId skip = kInvalidData) const;

  /// Full scans: brings `gpu`'s held mirror in line with `memory`, re-scoring
  /// the available consumers of every data whose flag flips.
  void sync_held(GpuId gpu, const MemoryView& memory);

  [[nodiscard]] std::uint32_t count_unprocessed_consumers(DataId data) const;
  /// The same count by walking the consumers (debug cross-check).
  [[nodiscard]] std::uint32_t recount_unprocessed_consumers(DataId data) const;

  /// Streaming arrival or dependency release: `task` joins the shared pool.
  void submit_task(TaskId task);

  /// Every move into or out of the shared pool goes through these two, which
  /// keep every GPU's n(D) counts current.
  void remove_from_available(TaskId task);
  void push_to_available(TaskId task);
  void remove_data_from_scan(GpuId gpu, DataId data);
  void push_data_to_scan(GpuId gpu, DataId data);

  /// Plans on `gpu` every available task freed by loading `data`, and pops
  /// the first of them.
  TaskId plan_and_pop(GpuId gpu, const MemoryView& memory, DataId data);

  TaskId pop_planned(GpuId gpu);

  /// LUF: counts `task`'s inputs into (`add`) or out of `uses`, one of a
  /// GPU's per-data use counts; a no-op without LUF, which keeps none.
  void count_uses(std::vector<std::uint32_t>& uses, TaskId task,
                  bool add) const;

  // SLO tier boost (armed only with options_.tier_boost > 0 and a nonzero
  // announced priority, so default runs take the exact untiered paths).
  [[nodiscard]] bool tier_active() const {
    return options_.tier_boost > 0.0 && has_priorities_;
  }
  [[nodiscard]] std::uint32_t task_priority(TaskId task) const {
    return task < task_priority_.size() ? task_priority_[task] : 0;
  }
  /// Highest announced priority among the available consumers of `data`.
  [[nodiscard]] std::uint32_t data_priority(DataId data) const;
  /// `memory` feeds the dependency-gated fallback's locality ranking.
  TaskId take_random_available(GpuId gpu, const MemoryView& memory);
  TaskId take_three_inputs(GpuId gpu, const MemoryView& memory);
  void mark_buffered(GpuId gpu, TaskId task);

  // Successor-aware planning (dependency-gated runs only).
  /// Weight of the successors `task` would unlock by retiring: one point per
  /// successor whose last unretired predecessor is `task`, plus one per
  /// input that successor shares with `task` (running `task` keeps those
  /// loaded for the successor).
  [[nodiscard]] std::uint64_t unlock_weight(TaskId task) const;
  /// Sum of unlock_weight over the available consumers of `data`.
  [[nodiscard]] std::uint64_t successor_weight_of_data(DataId data) const;
  /// Tie-break over candidates_: unlock weight, then unprocessed consumers,
  /// then uniform random.
  [[nodiscard]] DataId choose_candidate_successor_aware();
  /// Fallback pop: the available task with the fewest absent inputs on
  /// `gpu`, breaking ties towards the highest unlock weight.
  TaskId take_available_successor_aware(GpuId gpu, const MemoryView& memory);

  DartsOptions options_;
  std::string name_;
  bool streaming_ = false;
  bool deps_ = false;
  const TaskGraph* graph_ = nullptr;
  util::Rng rng_;

  /// Unretired-predecessor mirror for the successor-aware weighting (not
  /// rolled back on fault-time un-retirements — a slightly stale weight is
  /// an acceptable heuristic error; correctness lives in the engine gate).
  std::vector<std::uint32_t> dep_pending_;
  std::vector<TaskState> state_;
  std::vector<TaskId> available_;            ///< shared pool
  std::vector<std::uint32_t> available_pos_; ///< task -> index, or npos
  std::vector<PerGpu> per_gpu_;
  std::uint64_t use_clock_ = 0;

  /// Unprocessed consumers per data (the lines 8-9 tie-break): +1 per input
  /// when a task leaves kUnsubmitted, -1 when it reaches kDone.
  std::vector<std::uint32_t> unprocessed_;

  /// Occupancy-sharing hints (armed by the first notify_occupancy; sharing
  /// off leaves pop order untouched).
  bool occ_hinted_ = false;
  std::vector<std::uint32_t> occ_active_warps_;
  std::vector<std::uint32_t> occ_free_warps_;

  /// Job priorities announced via notify_job_priority and their per-task
  /// projection (filled as jobs arrive); `has_priorities_` arms the tier
  /// boost only once some job's priority is nonzero.
  std::vector<std::uint32_t> job_priority_;
  std::vector<std::uint32_t> task_priority_;
  bool has_priorities_ = false;

  // Scratch buffers reused across pops to avoid per-call allocation.
  std::vector<DataId> candidates_;
  std::vector<TaskId> free_tasks_;

  static constexpr std::uint32_t kNoPos = 0xffffffffu;
};

/// Human-readable variant name, e.g. "DARTS+LUF+OPTI-3inputs".
std::string darts_variant_name(const DartsOptions& options);

}  // namespace mg::core
