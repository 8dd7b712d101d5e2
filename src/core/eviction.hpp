// Eviction policy interface.
//
// When a GPU's memory manager must make room for an incoming data, it asks
// the policy for a victim among the GPU's resident data through a
// ResidentView: the resident set, an O(1) evictability test (not pinned by a
// running or assembling task, not protected, not under an SLO veto) and,
// on demand, the list of evictable candidates. Policies get notified of
// loads / task-start uses / evictions to maintain their state (recency lists
// for LRU, planning info for the paper's LUF).
#pragma once

#include <span>
#include <string_view>

#include "core/ids.hpp"

namespace mg::core {

/// One GPU's resident set as an eviction policy sees it while choosing a
/// victim. Valid only for the duration of the select_victim call.
class ResidentView {
 public:
  virtual ~ResidentView() = default;

  /// Every resident data of the GPU, in the memory manager's order.
  [[nodiscard]] virtual std::span<const DataId> resident() const = 0;

  /// True when `data` is resident and may be evicted right now.
  [[nodiscard]] virtual bool evictable(DataId data) const = 0;

  /// The evictable data of resident(), in its order. Built on the first
  /// call of a selection round; later calls return the same list.
  [[nodiscard]] virtual std::span<const DataId> candidates() = 0;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called when `data` becomes resident on `gpu`.
  virtual void on_load(GpuId gpu, DataId data) { (void)gpu; (void)data; }

  /// Called when a task starting on `gpu` reads `data`.
  virtual void on_use(GpuId gpu, DataId data) { (void)gpu; (void)data; }

  /// Called after `data` has been evicted from `gpu`.
  virtual void on_evict(GpuId gpu, DataId data) { (void)gpu; (void)data; }

  /// Picks a victim among `candidates` (non-empty, all evictable right now).
  /// Returning kInvalidData refuses the eviction; the pending allocation then
  /// waits until memory pressure changes (a policy should only refuse when it
  /// knows pressure will change, otherwise the run stalls and the engine
  /// aborts on deadlock).
  [[nodiscard]] virtual DataId choose_victim(
      GpuId gpu, std::span<const DataId> candidates) = 0;

  /// The memory manager's query: picks an evictable data of `resident`, or
  /// returns kInvalidData when none is evictable or the policy refuses (as
  /// for choose_victim). The default hands resident.candidates() to
  /// choose_victim. A policy that keeps its own order over the resident set
  /// overrides this to find the victim without the candidate list; it must
  /// pick what choose_victim would pick over that list.
  [[nodiscard]] virtual DataId select_victim(GpuId gpu,
                                             ResidentView& resident) {
    const std::span<const DataId> candidates = resident.candidates();
    return candidates.empty() ? kInvalidData : choose_victim(gpu, candidates);
  }
};

}  // namespace mg::core
