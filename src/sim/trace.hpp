// Execution trace: the ordered record of loads, evictions, task starts and
// completions of a simulation, mirrored from the inspector event stream by
// RunReportCollector. Consumed by the Chrome-trace export, the reuse
// statistics and the ablation benches that replay a recorded execution
// order under a different eviction policy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ids.hpp"

namespace mg::sim {

enum class TraceKind : std::uint8_t {
  kLoad,       ///< data became resident on gpu via the host bus (id = DataId)
  kPeerLoad,   ///< data became resident on gpu via NVLink (id = DataId)
  kEvict,      ///< data evicted from gpu (id = DataId)
  kTaskStart,  ///< task started on gpu (id = TaskId)
  kTaskEnd,    ///< task completed on gpu (id = TaskId)
  kWriteBack,  ///< output write-back to host completed (id = TaskId)
};

struct TraceEvent {
  double time_us;
  TraceKind kind;
  core::GpuId gpu;
  std::uint32_t id;
};

struct Trace {
  std::vector<TraceEvent> events;

  /// Task ids in start order for one GPU — the realized σ(k, ·).
  [[nodiscard]] std::vector<core::TaskId> execution_order(
      core::GpuId gpu) const {
    std::vector<core::TaskId> order;
    for (const TraceEvent& event : events) {
      if (event.kind == TraceKind::kTaskStart && event.gpu == gpu) {
        order.push_back(event.id);
      }
    }
    return order;
  }
};

}  // namespace mg::sim
