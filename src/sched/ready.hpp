// The "Ready" reordering heuristic (Algorithm 2): among the tasks queued on
// a GPU, prefer the one whose missing input volume is smallest. StarPU's
// dmdar applies it at pop time over the worker's *entire* local queue — the
// paper notes both the benefit (DMDAR escapes EAGER's LRU pathology by
// jumping to tasks whose column is already resident, Section V-B) and the
// cost (DMDAR "suffers from a large scheduling time induced by looking at
// all the tasks", Section V-F). A bounded `window` is available for
// ablation studies.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "core/ids.hpp"
#include "core/memory_view.hpp"
#include "core/task_graph.hpp"
#include "util/check.hpp"

namespace mg::sched {

inline constexpr std::size_t kDefaultReadyWindow =
    std::numeric_limits<std::size_t>::max();

namespace detail {

/// The plain scan `pop_ready` must agree with: prices every inspected task in
/// full and returns the chosen index, or queue.size() when none is eligible.
/// Kept as the Debug audit of the pruned scan.
inline std::size_t ready_index_by_full_scan(
    const std::deque<core::TaskId>& queue, const core::TaskGraph& graph,
    const core::MemoryView& memory, std::size_t window,
    const std::vector<std::uint8_t>* enabled) {
  std::size_t best_index = queue.size();
  std::uint64_t best_missing = ~std::uint64_t{0};
  std::size_t inspected = 0;
  for (std::size_t i = 0; i < queue.size() && inspected < window; ++i) {
    if (enabled != nullptr && (*enabled)[queue[i]] == 0) continue;
    ++inspected;
    std::uint64_t missing = 0;
    for (core::DataId data : graph.inputs(queue[i])) {
      if (!memory.is_present_or_fetching(data)) {
        missing += graph.data_size(data);
      }
    }
    if (missing < best_missing) {
      best_missing = missing;
      best_index = i;
      if (missing == 0) break;
    }
  }
  return best_index;
}

}  // namespace detail

/// Removes and returns the task among the first `window` entries of `queue`
/// requiring the fewest missing input bytes (ties: earliest in queue).
/// Returns kInvalidTask when the queue is empty. The other entries keep
/// their order.
///
/// On a dependency-gated run, `enabled` (indexed by TaskId) restricts the
/// choice to tasks whose predecessors all retired. The window then bounds
/// how many *enabled* candidates one decision inspects — the scan itself
/// walks the whole queue, because a bounded positional window over a queue
/// whose head is dependency-blocked could starve forever (the head never
/// leaves, the window never moves). Returns kInvalidTask when no queued
/// task is enabled.
inline core::TaskId pop_ready(std::deque<core::TaskId>& queue,
                              const core::TaskGraph& graph,
                              const core::MemoryView& memory,
                              std::size_t window = kDefaultReadyWindow,
                              const std::vector<std::uint8_t>* enabled =
                                  nullptr) {
  auto best = queue.end();
  std::uint64_t best_missing = ~std::uint64_t{0};
  std::size_t inspected = 0;
  for (auto it = queue.begin(); it != queue.end() && inspected < window;
       ++it) {
    if (enabled != nullptr && (*enabled)[*it] == 0) continue;
    ++inspected;
    // Pricing stops once the task cannot win: a tie keeps the earlier task.
    std::uint64_t missing = 0;
    for (core::DataId data : graph.inputs(*it)) {
      if (memory.is_present_or_fetching(data)) continue;
      missing += graph.data_size(data);
      if (missing >= best_missing) break;
    }
    if (missing < best_missing) {
      best_missing = missing;
      best = it;
      if (missing == 0) break;  // cannot do better than zero transfers
    }
  }
  MG_DCHECK(static_cast<std::size_t>(best - queue.begin()) ==
            detail::ready_index_by_full_scan(queue, graph, memory, window,
                                             enabled));
  if (best == queue.end()) return core::kInvalidTask;
  const core::TaskId task = *best;
  queue.erase(best);
  return task;
}

/// FIFO pop restricted to dependency-enabled tasks: removes and returns the
/// earliest queued task with a set `enabled` bit, or kInvalidTask when none
/// is enabled. Skipped (blocked) tasks keep their queue positions.
inline core::TaskId pop_first_enabled(
    std::deque<core::TaskId>& queue,
    const std::vector<std::uint8_t>& enabled) {
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (enabled[*it] != 0) {
      const core::TaskId task = *it;
      queue.erase(it);
      return task;
    }
  }
  return core::kInvalidTask;
}

}  // namespace mg::sched
