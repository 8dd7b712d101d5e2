// Per-GPU memory manager.
//
// Tracks residency of every data item on one GPU (Absent / Fetching /
// Present), accounts *committed* bytes (resident + in-flight reservations)
// against the capacity M, and makes room by asking the active
// core::EvictionPolicy to select a victim from its core::ResidentView of the
// resident set. Pinned data (inputs of the running task, plus the inputs of
// the task currently being assembled at the head of the worker's pipeline),
// protected and SLO-vetoed data and in-flight transfers are never evicted.
//
// A fetch that cannot make room is parked on a stalled list and retried when
// evictability can have changed (a pin released, a transfer completed).
// Demand fetches (head-of-pipeline) are retried before prefetches.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/eviction.hpp"
#include "core/ids.hpp"
#include "core/memory_view.hpp"
#include "core/task_graph.hpp"
#include "sim/transfer_router.hpp"

namespace mg::sim {

class MemoryManager final : public core::MemoryView {
 public:
  /// Engine-side notifications, fired after the manager's own state and the
  /// eviction policy have been updated.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on_data_loaded(core::GpuId gpu, core::DataId data) = 0;
    virtual void on_data_evicted(core::GpuId gpu, core::DataId data) = 0;
    /// Fired when a transfer is committed (bytes reserved, request issued).
    /// `demand` distinguishes head-of-pipeline fetches from prefetches.
    virtual void on_fetch_started(core::GpuId gpu, core::DataId data,
                                  bool demand) {
      (void)gpu;
      (void)data;
      (void)demand;
    }
    /// Fired just before a proactive replica is dropped to make room (the
    /// regular on_data_evicted for the same data follows).
    virtual void on_replica_shed(core::GpuId gpu, core::DataId data) {
      (void)gpu;
      (void)data;
    }
    /// Fired when `data` was an eviction candidate (unpinned, unprotected)
    /// but the SLO eviction veto excluded it. The engine debounces this
    /// into at most one kEvictionVetoed event per protection window.
    virtual void on_eviction_vetoed(core::GpuId gpu, core::DataId data) {
      (void)gpu;
      (void)data;
    }
  };

  /// One byte per data, registered as the MemoryView's residency: any state
  /// but kAbsent reads as present or fetching.
  enum class Residency : std::uint8_t { kAbsent, kFetching, kPresent };
  static_assert(sizeof(Residency) == 1 &&
                static_cast<std::uint8_t>(Residency::kAbsent) == 0);

  MemoryManager(core::GpuId gpu, const core::TaskGraph& graph,
                std::uint64_t capacity_bytes, TransferRouter& router);

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Both must be set before the first fetch; not owned.
  void set_eviction_policy(core::EvictionPolicy* policy) { policy_ = policy; }
  void set_observer(Observer* observer) { observer_ = observer; }

  /// SLO eviction veto: data whose count is nonzero is never evicted
  /// (make_room and emergency_evict, replica shedding included), exactly
  /// like pinned or protected data. The engine installs a read-only view of
  /// its per-data protection refcounts over the in-flight high-tier jobs'
  /// inputs; the counts must outlive the manager and never move.
  void set_eviction_veto(std::span<const std::uint32_t> veto_counts) {
    veto_counts_ = veto_counts;
  }

  /// Call when a veto lifts (a protected job retired): parked fetches that
  /// previously found no victim may succeed now.
  void veto_lifted() {
    if (active_ && !stalled_.empty()) retry_stalled();
  }

  // MemoryView
  [[nodiscard]] bool is_present(core::DataId data) const override {
    return residency_[data] == Residency::kPresent;
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return capacity_;
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return committed_;
  }

  [[nodiscard]] Residency residency(core::DataId data) const {
    return residency_[data];
  }

  /// Requests `data` on this GPU. No-op if already resident or in flight
  /// (but a demand fetch promotes a still-queued low-priority transfer).
  /// `demand` marks head-of-pipeline fetches that take retry priority.
  void fetch(core::DataId data, bool demand);

  /// Opportunistic prefetch (push-time hint): starts a low-priority
  /// transfer. By default hints never evict and never stall — they only
  /// proceed into free space. With `may_evict` (StarPU's eager prefetch
  /// allocation) the hint makes room like a normal fetch, which is exactly
  /// the prefetch/eviction conflict of the paper's DMDAR discussion.
  /// Returns false when there is no room (the caller should retry when
  /// memory is freed), true otherwise (including when the data is already
  /// resident or in flight).
  bool fetch_hint(core::DataId data, bool may_evict = false);

  /// Proactive fault-tolerance replica: like fetch_hint (low priority, free
  /// space only, never evicts, never stalls) but the copy is tagged as a
  /// replica — it is shed *before* the eviction policy is consulted when
  /// room is needed, and it counts against M like any resident data. The
  /// tag clears the moment a regular fetch/hint wants the data here.
  /// Returns false when there is no room right now.
  bool fetch_replica(core::DataId data);

  [[nodiscard]] bool is_replica(core::DataId data) const {
    return replica_[data] != 0;
  }

  /// Marks `data` as the sole surviving copy on the platform: it is removed
  /// from every eviction-candidate set (make_room, emergency_evict) until
  /// unprotect(). Protection implies the copy is no longer a shedable
  /// replica.
  void protect(core::DataId data);
  void unprotect(core::DataId data);
  [[nodiscard]] bool is_protected(core::DataId data) const {
    return protected_[data] != 0;
  }

  [[nodiscard]] std::uint64_t replicas_shed() const { return replicas_shed_; }

  void pin(core::DataId data);
  void unpin(core::DataId data);
  [[nodiscard]] std::uint32_t pin_count(core::DataId data) const {
    return pins_[data];
  }

  /// Forwards a task-start use of `data` to the eviction policy.
  void touch(core::DataId data);

  /// Reserves `bytes` of task-private scratch (output buffers), evicting if
  /// needed. Returns false when no room can be made right now; the caller
  /// retries on its own progress events.
  [[nodiscard]] bool try_reserve_scratch(std::uint64_t bytes);

  /// Releases scratch previously reserved (e.g. after write-back).
  void release_scratch(std::uint64_t bytes);

  /// Currently resident data, in load order (eviction candidate universe).
  [[nodiscard]] const std::vector<core::DataId>& resident() const {
    return resident_;
  }

  /// Changes the capacity mid-run (fault injection: memory-pressure shock).
  /// Shrinking does not evict by itself — call emergency_evict() afterwards;
  /// until committed bytes drain below the new capacity, new fetches stall.
  /// Growing retries parked fetches that may fit now.
  void set_capacity(std::uint64_t capacity_bytes) {
    const bool grew = capacity_bytes > capacity_;
    capacity_ = capacity_bytes;
    if (grew && !stalled_.empty()) retry_stalled();
  }

  /// Evicts unpinned resident data until committed bytes fit the capacity
  /// again (or no candidate is left — pinned data and in-flight reservations
  /// are untouchable and drain on their own). Returns the eviction count.
  std::uint32_t emergency_evict();

  /// Permanently shuts the manager down (GPU loss): wipes all residency,
  /// pins and stalled fetches. Every subsequent call is a no-op, so late
  /// wire deliveries towards the dead GPU land harmlessly.
  void deactivate();

  [[nodiscard]] bool active() const { return active_; }

  /// Drops parked (stalled) fetches whose tasks were pulled back out of the
  /// pipeline (planned node drain); unlike deactivate() the manager stays
  /// fully usable.
  void cancel_stalled() { stalled_.clear(); }

  /// True when nothing is outstanding: no in-flight fetch, no parked fetch
  /// and no scratch reservation — every committed byte is resident data.
  /// The quiescence gate of a planned node drain.
  [[nodiscard]] bool quiescent() const;

  /// Silently drops every resident copy (planned node drain): residency,
  /// pins, replica/protection tags all clear, the eviction policy is told,
  /// but no observer eviction fires — the drain event itself marks the wipe
  /// for inspectors. Requires quiescent(); the manager stays active so the
  /// node can later rejoin.
  void wipe_resident();

  [[nodiscard]] std::size_t stalled_fetches() const { return stalled_.size(); }
  [[nodiscard]] core::GpuId gpu() const { return gpu_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  struct StalledFetch {
    core::DataId data;
    bool demand;
  };

  /// The policy's view of this manager during one victim selection.
  class Residents final : public core::ResidentView {
   public:
    explicit Residents(const MemoryManager& manager) : manager_(manager) {}
    [[nodiscard]] std::span<const core::DataId> resident() const override {
      return manager_.resident_;
    }
    [[nodiscard]] bool evictable(core::DataId data) const override {
      return manager_.evictable(data);
    }
    [[nodiscard]] std::span<const core::DataId> candidates() override;
    /// Starts a selection round: the next candidates() call rebuilds.
    void reset() { built_ = false; }

   private:
    const MemoryManager& manager_;
    std::vector<core::DataId> candidates_;  // reused across rounds
    bool built_ = false;
  };

  [[nodiscard]] bool vetoed(core::DataId data) const {
    return !veto_counts_.empty() && veto_counts_[data] != 0;
  }
  [[nodiscard]] bool evictable(core::DataId data) const {
    return residency_[data] == Residency::kPresent && pins_[data] == 0 &&
           protected_[data] == 0 && !vetoed(data);
  }
  void clear_replica(core::DataId data) {
    if (replica_[data] != 0) {
      replica_[data] = 0;
      --replica_count_;
    }
  }

  /// Evicts until `bytes` fit; false if no victim can be found now.
  bool make_room(std::uint64_t bytes);
  /// Evicts one data: the oldest sheddable replica, else the policy's
  /// victim. False when nothing is evictable or the policy refuses; with
  /// `forced` (emergency pressure) a refusal falls back to the first
  /// candidate instead.
  bool evict_one(bool forced);
  void evict(core::DataId victim);
  void start_transfer(core::DataId data, bool demand,
                      TransferPriority priority = TransferPriority::kHigh);
  void on_transfer_complete(core::DataId data);
  void retry_stalled();
  void remove_resident(core::DataId data);

  core::GpuId gpu_;
  const core::TaskGraph& graph_;
  std::uint64_t capacity_;
  TransferRouter& router_;
  core::EvictionPolicy* policy_ = nullptr;
  Observer* observer_ = nullptr;
  std::span<const std::uint32_t> veto_counts_;  // empty = no veto installed

  std::vector<Residency> residency_;
  std::vector<std::uint32_t> pins_;
  std::vector<std::uint32_t> resident_pos_;  // index into resident_, or npos
  std::vector<core::DataId> resident_;
  std::vector<std::uint8_t> replica_;    // shed-first proactive copies
  std::uint32_t replica_count_ = 0;      // replica_ flags set
  std::vector<std::uint8_t> protected_;  // sole-surviving copies, unevictable
  std::deque<StalledFetch> stalled_;
  std::uint64_t committed_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t replicas_shed_ = 0;
  bool in_retry_ = false;
  bool active_ = true;
  Residents residents_{*this};

  static constexpr std::uint32_t kNoPos = 0xffffffffu;
};

}  // namespace mg::sim
