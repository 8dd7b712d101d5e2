#include "sim/inspector.hpp"

#include <algorithm>
#include <cstdio>

namespace mg::sim {

std::string_view inspector_event_kind_name(InspectorEventKind kind) {
  switch (kind) {
    case InspectorEventKind::kFetchStart: return "fetch-start";
    case InspectorEventKind::kLoadComplete: return "load";
    case InspectorEventKind::kEvict: return "evict";
    case InspectorEventKind::kScratchReserve: return "scratch-reserve";
    case InspectorEventKind::kScratchRelease: return "scratch-release";
    case InspectorEventKind::kTransferStart: return "transfer-start";
    case InspectorEventKind::kTransferEnd: return "transfer-end";
    case InspectorEventKind::kWriteBackStart: return "writeback-start";
    case InspectorEventKind::kWriteBackEnd: return "writeback-end";
    case InspectorEventKind::kTaskStart: return "task-start";
    case InspectorEventKind::kTaskEnd: return "task-end";
    case InspectorEventKind::kNotifyTaskComplete: return "notify-complete";
    case InspectorEventKind::kNotifyDataLoaded: return "notify-loaded";
    case InspectorEventKind::kNotifyDataEvicted: return "notify-evicted";
    case InspectorEventKind::kGpuLost: return "gpu-lost";
    case InspectorEventKind::kCapacityShock: return "capacity-shock";
    case InspectorEventKind::kTransferRetry: return "transfer-retry";
    case InspectorEventKind::kTaskReclaimed: return "task-reclaimed";
    case InspectorEventKind::kNotifyGpuLost: return "notify-gpu-lost";
    case InspectorEventKind::kJobArrival: return "job-arrival";
    case InspectorEventKind::kJobComplete: return "job-complete";
    case InspectorEventKind::kJobShed: return "job-shed";
    case InspectorEventKind::kTaskReleased: return "task-released";
    case InspectorEventKind::kTaskCancelled: return "task-cancelled";
    case InspectorEventKind::kCheckpoint: return "checkpoint";
    case InspectorEventKind::kProgressRestored: return "progress-restored";
    case InspectorEventKind::kReplicaCreate: return "replica-create";
    case InspectorEventKind::kReplicaProtect: return "replica-protect";
    case InspectorEventKind::kReplicaRelease: return "replica-release";
    case InspectorEventKind::kReplicaShed: return "replica-shed";
    case InspectorEventKind::kReplayDivergence: return "replay-divergence";
    case InspectorEventKind::kHostFetchStart: return "host-fetch-start";
    case InspectorEventKind::kHostCacheFill: return "host-cache-fill";
    case InspectorEventKind::kHostCacheEvict: return "host-cache-evict";
    case InspectorEventKind::kEdgeReleased: return "edge-released";
    case InspectorEventKind::kTaskEnabled: return "task-enabled";
    case InspectorEventKind::kTaskUnretired: return "task-unretired";
    case InspectorEventKind::kNodeDrainStart: return "node-drain-start";
    case InspectorEventKind::kTaskDrained: return "task-drained";
    case InspectorEventKind::kDataMigrateStart: return "data-migrate-start";
    case InspectorEventKind::kDataMigrated: return "data-migrated";
    case InspectorEventKind::kNodeDrained: return "node-drained";
    case InspectorEventKind::kNodeJoinStart: return "node-join-start";
    case InspectorEventKind::kNodeWarmFill: return "node-warm-fill";
    case InspectorEventKind::kNodeJoined: return "node-joined";
    case InspectorEventKind::kNodeLost: return "node-lost";
    case InspectorEventKind::kOccupancyConfig: return "occupancy-config";
    case InspectorEventKind::kTaskAdmitted: return "task-admitted";
    case InspectorEventKind::kAdmissionRejected: return "admission-rejected";
    case InspectorEventKind::kLinkDegraded: return "link-degraded";
    case InspectorEventKind::kLinkPartitioned: return "link-partitioned";
    case InspectorEventKind::kLinkRestored: return "link-restored";
    case InspectorEventKind::kFetchTimeout: return "fetch-timeout";
    case InspectorEventKind::kFetchHedged: return "fetch-hedged";
    case InspectorEventKind::kHedgeWasted: return "hedge-wasted";
    case InspectorEventKind::kNodeSuspected: return "node-suspected";
    case InspectorEventKind::kNodeSuspicionCleared:
      return "node-suspicion-cleared";
    case InspectorEventKind::kNodeSuspicionEscalated:
      return "node-suspicion-escalated";
    case InspectorEventKind::kJobsFused: return "jobs-fused";
    case InspectorEventKind::kSuperTaskLaunched: return "super-task-launched";
    case InspectorEventKind::kBatchUnfused: return "batch-unfused";
    case InspectorEventKind::kEvictionVetoed: return "eviction-vetoed";
    case InspectorEventKind::kTierProtect: return "tier-protect";
    case InspectorEventKind::kTierUnprotect: return "tier-unprotect";
  }
  return "?";
}

std::uint32_t inspector_channel_count(const core::Platform& platform) {
  const std::uint32_t single_node = kChannelNvlinkBase + platform.num_gpus;
  if (!platform.is_cluster()) return single_node;
  return std::max(single_node, kChannelNetBase + platform.num_nodes);
}

std::string inspector_channel_name(std::uint32_t channel) {
  if (channel == kChannelHostBus) return "host-bus";
  if (channel == kChannelWriteback) return "writeback";
  if (channel == kNoChannel) return "-";
  if (channel >= kChannelNetBase) {
    return "net-node" + std::to_string(channel - kChannelNetBase);
  }
  if (channel >= kChannelNodeWritebackBase) {
    return "node" + std::to_string(channel - kChannelNodeWritebackBase) +
           "-writeback";
  }
  if (channel >= kChannelNodePciBase) {
    return "node" + std::to_string(channel - kChannelNodePciBase) + "-pci";
  }
  return "nvlink-gpu" + std::to_string(channel - kChannelNvlinkBase);
}

std::string format_inspector_event(const InspectorEvent& event) {
  // Tasks for task-flavoured kinds, data otherwise.
  const bool is_task = event.kind == InspectorEventKind::kTaskStart ||
                       event.kind == InspectorEventKind::kTaskEnd ||
                       event.kind == InspectorEventKind::kScratchReserve ||
                       event.kind == InspectorEventKind::kScratchRelease ||
                       event.kind == InspectorEventKind::kWriteBackStart ||
                       event.kind == InspectorEventKind::kWriteBackEnd ||
                       event.kind == InspectorEventKind::kNotifyTaskComplete ||
                       event.kind == InspectorEventKind::kTaskReclaimed ||
                       event.kind == InspectorEventKind::kTaskReleased ||
                       event.kind == InspectorEventKind::kTaskCancelled ||
                       event.kind == InspectorEventKind::kCheckpoint ||
                       event.kind == InspectorEventKind::kProgressRestored ||
                       event.kind == InspectorEventKind::kEdgeReleased ||
                       event.kind == InspectorEventKind::kTaskEnabled ||
                       event.kind == InspectorEventKind::kTaskUnretired ||
                       event.kind == InspectorEventKind::kTaskDrained ||
                       event.kind == InspectorEventKind::kTaskAdmitted ||
                       event.kind == InspectorEventKind::kAdmissionRejected ||
                       event.kind == InspectorEventKind::kSuperTaskLaunched;
  const bool is_job = event.kind == InspectorEventKind::kJobArrival ||
                      event.kind == InspectorEventKind::kJobComplete ||
                      event.kind == InspectorEventKind::kJobShed ||
                      event.kind == InspectorEventKind::kJobsFused ||
                      event.kind == InspectorEventKind::kBatchUnfused;
  // Node-lifecycle kinds carry the node in `id` rather than a task/data.
  const bool is_node =
      event.kind == InspectorEventKind::kNodeDrainStart ||
      event.kind == InspectorEventKind::kNodeDrained ||
      event.kind == InspectorEventKind::kNodeJoinStart ||
      event.kind == InspectorEventKind::kNodeJoined ||
      event.kind == InspectorEventKind::kNodeLost ||
      event.kind == InspectorEventKind::kNodeSuspected ||
      event.kind == InspectorEventKind::kNodeSuspicionCleared ||
      event.kind == InspectorEventKind::kNodeSuspicionEscalated;
  // Link kinds carry the node pair in `gpu` (src) and `id` (dst).
  const bool is_link = event.kind == InspectorEventKind::kLinkDegraded ||
                       event.kind == InspectorEventKind::kLinkPartitioned ||
                       event.kind == InspectorEventKind::kLinkRestored;
  char buffer[192];
  if (is_link) {
    std::snprintf(buffer, sizeof buffer, "t=%.3fus %.*s node%u-node%u",
                  event.time_us,
                  static_cast<int>(
                      inspector_event_kind_name(event.kind).size()),
                  inspector_event_kind_name(event.kind).data(), event.gpu,
                  event.id);
  } else if (is_node) {
    std::snprintf(buffer, sizeof buffer, "t=%.3fus %.*s node%u",
                  event.time_us,
                  static_cast<int>(
                      inspector_event_kind_name(event.kind).size()),
                  inspector_event_kind_name(event.kind).data(), event.id);
  } else {
    std::snprintf(buffer, sizeof buffer, "t=%.3fus gpu%u %.*s %c%u",
                  event.time_us, event.gpu,
                  static_cast<int>(
                      inspector_event_kind_name(event.kind).size()),
                  inspector_event_kind_name(event.kind).data(),
                  is_job ? 'J' : (is_task ? 'T' : 'd'), event.id);
  }
  std::string line = buffer;
  if (event.bytes > 0 && !is_link) {
    std::snprintf(buffer, sizeof buffer, " bytes=%llu",
                  static_cast<unsigned long long>(event.bytes));
    line += buffer;
  }
  if (event.channel != kNoChannel) {
    line += " via " + inspector_channel_name(event.channel);
  }
  if (event.kind == InspectorEventKind::kFetchStart) {
    line += event.aux != 0 ? " (demand)" : " (prefetch)";
  } else if (event.kind == InspectorEventKind::kLoadComplete && event.aux != 0) {
    line += " (peer)";
  } else if (event.kind == InspectorEventKind::kEvict) {
    std::snprintf(buffer, sizeof buffer, " pins=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kGpuLost ||
             event.kind == InspectorEventKind::kNotifyGpuLost) {
    std::snprintf(buffer, sizeof buffer, " orphans=%u",
                  event.kind == InspectorEventKind::kGpuLost ? event.aux
                                                             : event.id);
    line += buffer;
    if (event.kind == InspectorEventKind::kNotifyGpuLost) {
      line += event.aux != 0 ? " (adopted)" : " (requeued)";
    }
  } else if (event.kind == InspectorEventKind::kTransferRetry) {
    std::snprintf(buffer, sizeof buffer, " attempt=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kCapacityShock &&
             event.aux != 0) {
    line += " (clamped)";
  } else if (event.kind == InspectorEventKind::kJobsFused ||
             event.kind == InspectorEventKind::kBatchUnfused) {
    std::snprintf(buffer, sizeof buffer, " leader=J%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kSuperTaskLaunched) {
    std::snprintf(buffer, sizeof buffer, " riders=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kTierProtect) {
    std::snprintf(buffer, sizeof buffer, " tier=%u", event.aux);
    line += buffer;
  } else if (is_job) {
    std::snprintf(buffer, sizeof buffer, " tasks=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kTaskReleased ||
             event.kind == InspectorEventKind::kTaskCancelled) {
    std::snprintf(buffer, sizeof buffer, " job=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kCheckpoint ||
             event.kind == InspectorEventKind::kProgressRestored) {
    std::snprintf(buffer, sizeof buffer, " progress=%.1f%%",
                  static_cast<double>(event.aux) / 1e4);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kReplicaRelease) {
    line += event.aux != 0 ? " (uses-exhausted)" : " (copy-elsewhere)";
  } else if (event.kind == InspectorEventKind::kReplayDivergence) {
    std::snprintf(buffer, sizeof buffer, " reassigned=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kHostFetchStart ||
             event.kind == InspectorEventKind::kHostCacheFill ||
             event.kind == InspectorEventKind::kHostCacheEvict) {
    std::snprintf(buffer, sizeof buffer, " node=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kEdgeReleased) {
    std::snprintf(buffer, sizeof buffer, " -> T%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kTaskEnabled &&
             event.aux != 0) {
    line += " (at-load)";
  } else if (event.kind == InspectorEventKind::kDataMigrateStart ||
             event.kind == InspectorEventKind::kDataMigrated) {
    std::snprintf(buffer, sizeof buffer, " -> node%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kTaskDrained ||
             event.kind == InspectorEventKind::kNodeWarmFill) {
    std::snprintf(buffer, sizeof buffer, " node=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kNodeDrainStart) {
    std::snprintf(buffer, sizeof buffer, " pulled=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kNodeDrained) {
    std::snprintf(buffer, sizeof buffer, " latency=%uus", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kNodeJoinStart ||
             event.kind == InspectorEventKind::kNodeJoined) {
    std::snprintf(buffer, sizeof buffer, " fills=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kNodeLost) {
    std::snprintf(buffer, sizeof buffer, " orphans=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kOccupancyConfig) {
    std::snprintf(buffer, sizeof buffer, " threshold=%.2f",
                  static_cast<double>(event.aux) / 1e6);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kTaskAdmitted ||
             event.kind == InspectorEventKind::kAdmissionRejected) {
    std::snprintf(buffer, sizeof buffer, " active-warps=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kLinkDegraded) {
    std::snprintf(buffer, sizeof buffer, " factor=%.2f straggler=%uus",
                  static_cast<double>(event.bytes) / 1e6, event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kLinkPartitioned) {
    if (event.bytes > 0) {
      std::snprintf(buffer, sizeof buffer, " heal=%lluus",
                    static_cast<unsigned long long>(event.bytes));
      line += buffer;
    } else {
      line += " (no heal)";
    }
  } else if (event.kind == InspectorEventKind::kLinkRestored) {
    line += event.aux != 0 ? " (partition healed)" : " (degradation over)";
  } else if (event.kind == InspectorEventKind::kFetchTimeout) {
    std::snprintf(buffer, sizeof buffer, " source=node%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kFetchHedged) {
    std::snprintf(buffer, sizeof buffer, " -> node%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kHedgeWasted) {
    std::snprintf(buffer, sizeof buffer, " node=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kNodeSuspected) {
    std::snprintf(buffer, sizeof buffer, " timeouts=%u", event.aux);
    line += buffer;
  } else if (event.kind == InspectorEventKind::kNodeSuspicionEscalated) {
    std::snprintf(buffer, sizeof buffer, " after=%uus", event.aux);
    line += buffer;
  }
  return line;
}

std::string RecentEvents::render() const {
  std::string text;
  const std::size_t oldest = size_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) {
    text += "  ";
    text += format_inspector_event(ring_[(oldest + i) % ring_.size()]);
    text += '\n';
  }
  return text;
}

}  // namespace mg::sim
