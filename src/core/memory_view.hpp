// Read-only view of one GPU's memory state, handed to schedulers when they
// are asked for a task. This is the scheduler-visible subset of what StarPU
// exposes (starpu_data_is_on_node & friends): residency and occupancy, but no
// ability to mutate — all loads/evictions are decided by the runtime engine
// and its eviction policy.
#pragma once

#include <cstdint>
#include <span>

#include "core/ids.hpp"
#include "util/check.hpp"

namespace mg::core {

class MemoryView {
 public:
  virtual ~MemoryView() = default;
  MemoryView(const MemoryView&) = delete;
  MemoryView& operator=(const MemoryView&) = delete;

  /// Data is fully resident (a task could start on it right now).
  [[nodiscard]] virtual bool is_present(DataId data) const = 0;

  /// Data is resident or its transfer is already in flight: using it costs no
  /// *additional* load. This is the notion of "already loaded" that the
  /// Ready heuristic and DARTS free-task counting use. A plain read of the
  /// byte the view registered for `data`, so those scans pay no call.
  [[nodiscard]] bool is_present_or_fetching(DataId data) const {
    const DataId index = to_held_ == nullptr ? data : to_held_[data];
    MG_DCHECK(index < held_.size());
    return held_[index] != 0;
  }

  [[nodiscard]] virtual std::uint64_t capacity_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t used_bytes() const = 0;

  [[nodiscard]] std::uint64_t free_bytes() const {
    return capacity_bytes() - used_bytes();
  }

 protected:
  MemoryView() = default;

  /// Every view registers its residency before its first query: `held[d]` is
  /// nonzero while data d is resident or in flight. The bytes are read in
  /// place, so they must outlive the view and never move.
  void register_residency(std::span<const std::uint8_t> held) {
    held_ = held;
    to_held_ = nullptr;
  }

  /// A view of `base`'s residency under another id space: this view's data
  /// d is `base`'s data `to_base[d]`. `base` must hold its bytes directly.
  void register_residency(const MemoryView& base,
                          std::span<const DataId> to_base) {
    MG_CHECK(base.to_held_ == nullptr);
    held_ = base.held_;
    to_held_ = to_base.data();
  }

 private:
  std::span<const std::uint8_t> held_;
  const DataId* to_held_ = nullptr;  // null: data ids index held_ directly
};

}  // namespace mg::core
