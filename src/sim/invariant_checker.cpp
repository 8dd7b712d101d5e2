#include "sim/invariant_checker.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace mg::sim {

namespace {

std::string describe(const char* what, const InspectorEvent& event) {
  char buffer[192];
  std::snprintf(buffer, sizeof buffer, "%s (gpu=%u id=%u t=%.3fus)", what,
                event.gpu, event.id, event.time_us);
  return buffer;
}

}  // namespace

InvariantChecker::InvariantChecker() : InvariantChecker(Options{}) {}

InvariantChecker::InvariantChecker(Options options)
    : options_(options), recent_(options.log_window) {}

void InvariantChecker::on_run_begin(const core::TaskGraph& graph,
                                    const core::Platform& platform,
                                    std::string_view scheduler_name) {
  (void)scheduler_name;
  graph_ = &graph;
  platform_ = platform;
  gpus_.assign(platform.num_gpus, GpuState{});
  for (GpuState& gpu : gpus_) {
    gpu.resident.assign(graph.num_data(), 0);
    gpu.in_flight.assign(graph.num_data(), 0);
    gpu.prot.assign(graph.num_data(), 0);
    gpu.capacity_bytes = platform.gpu_memory_bytes;
  }
  started_.assign(graph.num_tasks(), 0);
  ended_.assign(graph.num_tasks(), 0);
  complete_notified_.assign(graph.num_tasks(), 0);
  ran_on_.assign(graph.num_tasks(), core::kInvalidGpu);
  streaming_seen_ = false;
  released_.assign(graph.num_tasks(), 0);
  cancelled_.assign(graph.num_tasks(), 0);
  job_state_.clear();
  slo_protected_.assign(graph.num_data(), 0);
  if (graph.has_dependencies()) {
    dep_pending_.assign(graph.num_tasks(), 0);
    dep_release_count_.assign(graph.num_tasks(), 0);
    for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
      dep_pending_[task] = graph.num_predecessors(task);
    }
  } else {
    dep_pending_.clear();
    dep_release_count_.clear();
  }
  checkpoint_ppm_.assign(graph.num_tasks(), 0);
  divergence_seen_.assign(platform.num_gpus, 0);
  wire_active_.assign(inspector_channel_count(platform), 0);
  node_fetching_.assign(
      platform.is_cluster() ? platform.num_nodes : 0,
      std::vector<std::uint32_t>(graph.num_data(), 0));
  node_cached_.assign(platform.is_cluster() ? platform.num_nodes : 0,
                      std::vector<std::uint8_t>(graph.num_data(), 0));
  net_bytes_delivered_ = 0;
  host_fill_bytes_ = 0;
  node_status_.assign(platform.is_cluster() ? platform.num_nodes : 0,
                      NodeStatus::kActive);
  migrate_start_bytes_ = 0;
  migrate_done_bytes_ = 0;
  warm_fill_bytes_ = 0;
  const std::uint32_t nodes = platform.is_cluster() ? platform.num_nodes : 0;
  link_state_.assign(static_cast<std::size_t>(nodes) * nodes, 0);
  timeout_outstanding_.assign(nodes,
                              std::vector<std::uint8_t>(graph.num_data(), 0));
  suspected_.assign(nodes, 0);
  hedge_wasted_bytes_ = 0;
  occ_armed_ = false;
  occ_budget_warps_ = 0;
  occ_task_warps_.clear();
  occ_admitted_.clear();
  last_time_us_ = 0.0;
  events_ = 0;
  recent_.clear();
  ok_ = true;
  report_ = Report{};
}

void InvariantChecker::fail_text(const std::string& message) {
  if (!ok_) return;  // keep the first violation
  ok_ = false;
  report_.ok = false;
  report_.error = message;
  report_.excerpt = recent_.render();
  if (options_.fail_fast) {
    std::fprintf(stderr,
                 "InvariantChecker: %s\nlast %zu events before the "
                 "violation:\n%s",
                 message.c_str(), recent_.size(), report_.excerpt.c_str());
    std::fflush(stderr);
    std::abort();
  }
}

void InvariantChecker::fail(const InspectorEvent& event, const char* what) {
  fail_text(describe(what, event));
}

void InvariantChecker::on_event(const InspectorEvent& event) {
  if (!ok_) return;  // a recorded violation poisons the rest of the run
  if (graph_ == nullptr) {
    return fail_text("on_event before on_run_begin");
  }
  ++events_;
  recent_.push(event);

  if (event.time_us + 1e-9 < last_time_us_) {
    return fail(event, "time went backwards");
  }
  last_time_us_ = std::max(last_time_us_, event.time_us);
  if (event.gpu >= gpus_.size()) return fail(event, "unknown gpu");
  GpuState& gpu = gpus_[event.gpu];
  const std::uint32_t num_data = graph_->num_data();
  const std::uint32_t num_tasks = graph_->num_tasks();

  // Degraded-model liveness: a dead GPU performs no activity. Wire events
  // are exempt (a transfer already on the wire at the loss still drains),
  // and the fault events themselves carry their own liveness rules.
  switch (event.kind) {
    case InspectorEventKind::kTransferStart:
    case InspectorEventKind::kTransferEnd:
    case InspectorEventKind::kGpuLost:
    case InspectorEventKind::kCapacityShock:
    case InspectorEventKind::kTaskReclaimed:
    case InspectorEventKind::kNotifyGpuLost:
    // Job lifecycle and release events are engine-level, not GPU activity
    // (they are published with gpu=0, which may well be a dead GPU).
    case InspectorEventKind::kJobArrival:
    case InspectorEventKind::kJobComplete:
    case InspectorEventKind::kJobShed:
    case InspectorEventKind::kTaskReleased:
    case InspectorEventKind::kTaskCancelled:
    // A replay divergence is reported *about* the dead GPU, not by it.
    case InspectorEventKind::kReplayDivergence:
    // A network fetch keeps running after its initiating GPU dies: the fill
    // and any cache eviction it triggers are node-level, not GPU activity.
    case InspectorEventKind::kHostCacheFill:
    case InspectorEventKind::kHostCacheEvict:
    // Dependency release machinery is engine-level: an un-retirement is
    // published *about* the dead GPU, and shed-job edge releases carry
    // gpu=0, which may well be dead.
    case InspectorEventKind::kEdgeReleased:
    case InspectorEventKind::kTaskEnabled:
    case InspectorEventKind::kTaskUnretired:
    // Topology-change events are engine-level: a node loss is published
    // *about* the GPUs it kills, and the drain/join lifecycle carries a
    // representative GPU that stays alive (inactive, not dead) throughout.
    case InspectorEventKind::kNodeDrainStart:
    case InspectorEventKind::kTaskDrained:
    case InspectorEventKind::kDataMigrateStart:
    case InspectorEventKind::kDataMigrated:
    case InspectorEventKind::kNodeDrained:
    case InspectorEventKind::kNodeJoinStart:
    case InspectorEventKind::kNodeWarmFill:
    case InspectorEventKind::kNodeJoined:
    case InspectorEventKind::kNodeLost:
    // The occupancy config is engine-level, published once with gpu=0.
    case InspectorEventKind::kOccupancyConfig:
    // Network-fault events are node-level: link windows carry node ids in
    // the gpu field, and the fetch/suspicion events name a representative
    // GPU of a node that may well hold dead GPUs.
    case InspectorEventKind::kLinkDegraded:
    case InspectorEventKind::kLinkPartitioned:
    case InspectorEventKind::kLinkRestored:
    case InspectorEventKind::kFetchTimeout:
    case InspectorEventKind::kFetchHedged:
    case InspectorEventKind::kHedgeWasted:
    case InspectorEventKind::kNodeSuspected:
    case InspectorEventKind::kNodeSuspicionCleared:
    case InspectorEventKind::kNodeSuspicionEscalated:
    // SLO batching and tier protection are engine-level (published with
    // gpu=0, which may well be dead); super-task launches and veto reports
    // happen on the executing/fetching GPU and keep the default rule.
    case InspectorEventKind::kJobsFused:
    case InspectorEventKind::kBatchUnfused:
    case InspectorEventKind::kTierProtect:
    case InspectorEventKind::kTierUnprotect:
      break;
    default:
      if (!gpu.alive) return fail(event, "activity on a dead gpu");
  }

  switch (event.kind) {
    case InspectorEventKind::kFetchStart: {
      if (event.id >= num_data) return fail(event, "fetch of unknown data");
      if (gpu.resident[event.id] != 0) {
        return fail(event, "fetch of already-resident data");
      }
      if (gpu.in_flight[event.id] != 0) {
        return fail(event, "duplicate in-flight fetch");
      }
      if (event.bytes != graph_->data_size(event.id)) {
        return fail(event, "fetch size disagrees with data size");
      }
      gpu.in_flight[event.id] = 1;
      gpu.committed_bytes += event.bytes;
      if (gpu.committed_bytes > gpu.capacity_bytes) {
        return fail(event, "memory bound exceeded (committed bytes)");
      }
      break;
    }
    case InspectorEventKind::kLoadComplete: {
      if (event.id >= num_data) return fail(event, "load of unknown data");
      if (gpu.resident[event.id] != 0) {
        return fail(event, "load of already-resident data");
      }
      // The fetch committed the bytes; the landing only flips residency.
      if (gpu.in_flight[event.id] == 0) {
        return fail(event, "load without a preceding fetch");
      }
      gpu.in_flight[event.id] = 0;
      gpu.resident[event.id] = 1;
      gpu.resident_bytes += graph_->data_size(event.id);
      // A transfer committed before a capacity shock may land after it
      // (grandfathered); the fetch-time check already bounded the
      // commitment, so landing only needs residency <= commitment.
      if (gpu.resident_bytes > gpu.committed_bytes) {
        return fail(event, "resident bytes exceed committed bytes");
      }
      break;
    }
    case InspectorEventKind::kEvict: {
      if (event.id >= num_data || gpu.resident[event.id] == 0) {
        return fail(event, "evict of non-resident data");
      }
      if (event.aux != 0) return fail(event, "evict of pinned data");
      if (gpu.prot[event.id] != 0) {
        return fail(event, "evict of a protected sole-surviving replica");
      }
      if (slo_protected_[event.id] != 0) {
        return fail(event, "evict of slo-protected (vetoed) data");
      }
      if (gpu.running >= 0) {
        const auto inputs = graph_->inputs(static_cast<core::TaskId>(gpu.running));
        if (std::find(inputs.begin(), inputs.end(), event.id) != inputs.end()) {
          return fail(event, "evict of data in use by the running task");
        }
      }
      for (std::uint32_t co_runner : gpu.occ_running) {
        const auto inputs = graph_->inputs(co_runner);
        if (std::find(inputs.begin(), inputs.end(), event.id) != inputs.end()) {
          return fail(event, "evict of data in use by a co-running task");
        }
      }
      gpu.resident[event.id] = 0;
      gpu.resident_bytes -= graph_->data_size(event.id);
      gpu.committed_bytes -= graph_->data_size(event.id);
      break;
    }
    case InspectorEventKind::kScratchReserve: {
      gpu.scratch_bytes += event.bytes;
      gpu.committed_bytes += event.bytes;
      if (gpu.committed_bytes > gpu.capacity_bytes) {
        return fail(event, "memory bound exceeded (scratch)");
      }
      break;
    }
    case InspectorEventKind::kScratchRelease: {
      if (event.bytes > gpu.scratch_bytes) {
        return fail(event, "scratch release exceeds outstanding scratch");
      }
      gpu.scratch_bytes -= event.bytes;
      gpu.committed_bytes -= event.bytes;
      break;
    }
    case InspectorEventKind::kTransferStart: {
      if (event.channel >= wire_active_.size()) {
        return fail(event, "transfer on unknown channel");
      }
      if (++wire_active_[event.channel] > 1) {
        return fail(event, "overlapping transfers on one channel");
      }
      // Partition rule: no new transfer starts on a network channel while
      // the (src, dst) link is partitioned. Transfers already on the wire
      // when the window opened drain normally, so only starts are gated.
      if (!link_state_.empty() && event.channel >= kChannelNetBase &&
          event.channel < kChannelNetBase + platform_.num_nodes) {
        const std::uint32_t src = event.channel - kChannelNetBase;
        const std::uint32_t dst = platform_.node_of(event.gpu);
        if (link_state_[static_cast<std::size_t>(src) * platform_.num_nodes +
                        dst] == 2) {
          return fail(event, "transfer started across a partitioned link");
        }
      }
      break;
    }
    case InspectorEventKind::kTransferEnd: {
      if (event.channel >= wire_active_.size() ||
          wire_active_[event.channel] == 0) {
        return fail(event, "transfer end without a start");
      }
      --wire_active_[event.channel];
      if (!node_fetching_.empty() && event.channel >= kChannelNetBase &&
          event.channel < kChannelNetBase + platform_.num_nodes) {
        net_bytes_delivered_ += event.bytes;
      }
      break;
    }
    case InspectorEventKind::kWriteBackStart:
    case InspectorEventKind::kWriteBackEnd: {
      if (event.id >= num_tasks || ended_[event.id] == 0) {
        return fail(event, "write-back of a task that has not finished");
      }
      break;
    }
    case InspectorEventKind::kTaskStart: {
      if (event.id >= num_tasks) return fail(event, "start of unknown task");
      if (started_[event.id] != 0) {
        return fail(event, "task started twice (expected once)");
      }
      if (cancelled_[event.id] != 0) {
        return fail(event, "start of a cancelled task (shed job)");
      }
      if (streaming_seen_ && released_[event.id] == 0) {
        return fail(event, "start of a task before its job arrived");
      }
      if (occ_armed_) {
        if (occ_admitted_[event.id] == 0) {
          return fail(event, "task started without an admission");
        }
      } else if (gpu.running != -1) {
        return fail(event, "two tasks running on one gpu");
      }
      if (!node_status_.empty() &&
          node_status_[platform_.node_of(event.gpu)] != NodeStatus::kActive) {
        return fail(event, "task started on a non-serving node");
      }
      for (core::DataId data : graph_->inputs(event.id)) {
        if (gpu.resident[data] == 0) {
          return fail(event, "task started with missing input");
        }
      }
      if (!dep_pending_.empty()) {
        if (dep_pending_[event.id] != 0) {
          return fail(event, "task started before all predecessors retired");
        }
        // Data-version monotonicity: every earlier writer of each datum this
        // task writes must have finished (or died with its shed job).
        for (core::DataId data : graph_->writes(event.id)) {
          for (core::TaskId writer : graph_->writers(data)) {
            if (writer == event.id) break;  // writers are in version order
            if (ended_[writer] == 0 && cancelled_[writer] == 0) {
              return fail(event,
                          "task wrote a data version before an earlier "
                          "writer finished");
            }
          }
        }
      }
      started_[event.id] = 1;
      if (occ_armed_) {
        occ_admitted_[event.id] = 0;
        gpu.occ_running.push_back(event.id);
      } else {
        gpu.running = static_cast<std::int64_t>(event.id);
      }
      break;
    }
    case InspectorEventKind::kTaskEnd: {
      if (occ_armed_) {
        auto it = event.id < num_tasks
                      ? std::find(gpu.occ_running.begin(),
                                  gpu.occ_running.end(), event.id)
                      : gpu.occ_running.end();
        if (it == gpu.occ_running.end()) {
          return fail(event, "end of task that was not running");
        }
        gpu.occ_running.erase(it);
        gpu.occ_active_warps -=
            std::min(gpu.occ_active_warps, occ_task_warps_[event.id]);
      } else {
        if (event.id >= num_tasks ||
            gpu.running != static_cast<std::int64_t>(event.id)) {
          return fail(event, "end of task that was not running");
        }
        gpu.running = -1;
      }
      ended_[event.id] = 1;
      ran_on_[event.id] = event.gpu;
      break;
    }
    case InspectorEventKind::kNotifyTaskComplete: {
      if (event.id >= num_tasks || ended_[event.id] == 0) {
        return fail(event, "completion notified before the task ended");
      }
      if (complete_notified_[event.id] != 0) {
        return fail(event, "task completion notified twice");
      }
      if (ran_on_[event.id] != event.gpu) {
        return fail(event, "completion notified on the wrong gpu");
      }
      complete_notified_[event.id] = 1;
      break;
    }
    case InspectorEventKind::kNotifyDataLoaded: {
      if (event.id >= num_data || gpu.resident[event.id] == 0) {
        return fail(event, "load notified for non-resident data");
      }
      break;
    }
    case InspectorEventKind::kNotifyDataEvicted: {
      if (event.id >= num_data || gpu.resident[event.id] != 0 ||
          gpu.in_flight[event.id] != 0) {
        return fail(event, "eviction notified for data still on the gpu");
      }
      break;
    }
    case InspectorEventKind::kGpuLost: {
      if (!gpu.alive) return fail(event, "gpu lost twice");
      gpu.alive = false;
      if (gpu.running >= 0) {
        // The interrupted task never finished; it must start again on a
        // survivor, so its exactly-once budget is handed back.
        started_[static_cast<std::size_t>(gpu.running)] = 0;
        gpu.running = -1;
      }
      for (std::uint32_t co_runner : gpu.occ_running) {
        started_[co_runner] = 0;
      }
      gpu.occ_running.clear();
      gpu.occ_active_warps = 0;
      std::fill(gpu.resident.begin(), gpu.resident.end(), 0);
      std::fill(gpu.in_flight.begin(), gpu.in_flight.end(), 0);
      // Protection held on this GPU died with its residency (the engine
      // re-protects another surviving copy, if one exists, separately).
      std::fill(gpu.prot.begin(), gpu.prot.end(), 0);
      gpu.resident_bytes = 0;
      gpu.committed_bytes = 0;
      gpu.scratch_bytes = 0;
      break;
    }
    case InspectorEventKind::kCapacityShock: {
      if (!gpu.alive) return fail(event, "capacity shock on a dead gpu");
      if (event.bytes == 0) return fail(event, "capacity shock to zero");
      gpu.capacity_bytes = event.bytes;
      break;
    }
    case InspectorEventKind::kTransferRetry: {
      if (event.id >= num_data) {
        return fail(event, "transfer retry of unknown data");
      }
      if (!gpu.alive) return fail(event, "transfer retry towards a dead gpu");
      if (gpu.in_flight[event.id] == 0) {
        // A retried transfer must still be in flight: delivery-then-retry
        // would mean the same bytes arrive twice.
        return fail(event, "retry of a transfer that already delivered");
      }
      break;
    }
    case InspectorEventKind::kTaskReclaimed: {
      if (event.id >= num_tasks) {
        return fail(event, "reclaim of unknown task");
      }
      if (gpu.alive) return fail(event, "reclaim from a live gpu");
      if (started_[event.id] != 0 || ended_[event.id] != 0) {
        return fail(event, "reclaim of a task that already ran");
      }
      if (cancelled_[event.id] != 0) {
        return fail(event, "reclaim of a cancelled task (shed job)");
      }
      break;
    }
    case InspectorEventKind::kNotifyGpuLost: {
      if (gpu.alive) return fail(event, "gpu-lost notified for a live gpu");
      break;
    }
    case InspectorEventKind::kJobArrival: {
      streaming_seen_ = true;
      if (event.id >= job_state_.size()) job_state_.resize(event.id + 1, 0);
      if (job_state_[event.id] != 0) {
        return fail(event, "job arrived twice (or after shed/complete)");
      }
      job_state_[event.id] = 1;
      break;
    }
    case InspectorEventKind::kJobComplete: {
      if (event.id >= job_state_.size() ||
          (job_state_[event.id] != 1 &&
           // On a dependency-gated run an un-retirement can roll a job's
           // retirement back; the job then legitimately completes again.
           (dep_pending_.empty() || job_state_[event.id] != 3))) {
        return fail(event, "job completed without an in-flight arrival");
      }
      job_state_[event.id] = 3;
      break;
    }
    case InspectorEventKind::kJobShed: {
      streaming_seen_ = true;
      if (event.id >= job_state_.size()) job_state_.resize(event.id + 1, 0);
      if (job_state_[event.id] != 0) {
        return fail(event, "shed of a job that already arrived");
      }
      job_state_[event.id] = 2;
      break;
    }
    case InspectorEventKind::kTaskReleased: {
      streaming_seen_ = true;
      if (event.id >= num_tasks) return fail(event, "release of unknown task");
      if (released_[event.id] != 0) return fail(event, "task released twice");
      if (cancelled_[event.id] != 0) {
        return fail(event, "release of a cancelled task");
      }
      if (started_[event.id] != 0) {
        return fail(event, "release of a task that already started");
      }
      released_[event.id] = 1;
      break;
    }
    case InspectorEventKind::kTaskCancelled: {
      streaming_seen_ = true;
      if (event.id >= num_tasks) return fail(event, "cancel of unknown task");
      if (released_[event.id] != 0 || started_[event.id] != 0 ||
          ended_[event.id] != 0) {
        return fail(event, "cancel of a task that was released or ran");
      }
      if (cancelled_[event.id] != 0) {
        return fail(event, "task cancelled twice");
      }
      cancelled_[event.id] = 1;
      break;
    }
    case InspectorEventKind::kCheckpoint: {
      if (event.id >= num_tasks) return fail(event, "checkpoint of unknown task");
      if (gpu.running != static_cast<std::int64_t>(event.id)) {
        return fail(event, "checkpoint of a task that is not running");
      }
      if (event.aux > 1000000u) {
        return fail(event, "checkpoint fraction above 100%");
      }
      if (event.aux < checkpoint_ppm_[event.id]) {
        return fail(event, "checkpoint progress went backwards");
      }
      checkpoint_ppm_[event.id] = event.aux;
      break;
    }
    case InspectorEventKind::kProgressRestored: {
      if (event.id >= num_tasks) return fail(event, "restore of unknown task");
      if (gpu.running != static_cast<std::int64_t>(event.id)) {
        return fail(event, "restore of a task that is not running");
      }
      if (event.aux > checkpoint_ppm_[event.id]) {
        return fail(event, "restored progress exceeds checkpointed progress");
      }
      break;
    }
    case InspectorEventKind::kReplicaCreate: {
      if (event.id >= num_data) return fail(event, "replica of unknown data");
      if (gpu.in_flight[event.id] == 0 && gpu.resident[event.id] == 0) {
        return fail(event, "replica created without a fetch");
      }
      break;
    }
    case InspectorEventKind::kReplicaProtect: {
      if (event.id >= num_data || gpu.resident[event.id] == 0) {
        return fail(event, "protection of non-resident data");
      }
      if (gpu.prot[event.id] != 0) return fail(event, "data protected twice");
      gpu.prot[event.id] = 1;
      break;
    }
    case InspectorEventKind::kReplicaRelease: {
      if (event.id >= num_data || gpu.prot[event.id] == 0) {
        return fail(event, "release of unprotected data");
      }
      gpu.prot[event.id] = 0;
      break;
    }
    case InspectorEventKind::kReplicaShed: {
      if (event.id >= num_data || gpu.resident[event.id] == 0) {
        return fail(event, "shed of a non-resident replica");
      }
      if (gpu.prot[event.id] != 0) {
        return fail(event, "shed of a protected sole-surviving replica");
      }
      if (slo_protected_[event.id] != 0) {
        return fail(event, "shed of slo-protected (vetoed) data");
      }
      break;
    }
    case InspectorEventKind::kReplayDivergence: {
      if (gpu.alive) return fail(event, "replay divergence for a live gpu");
      if (divergence_seen_[event.gpu] != 0) {
        return fail(event, "replay divergence reported twice for one gpu");
      }
      divergence_seen_[event.gpu] = 1;
      break;
    }
    case InspectorEventKind::kHostFetchStart: {
      if (node_fetching_.empty() || event.aux >= node_fetching_.size()) {
        return fail(event, "host fetch on unknown node");
      }
      if (event.id >= num_data) {
        return fail(event, "host fetch of unknown data");
      }
      if (event.bytes != graph_->data_size(event.id)) {
        return fail(event, "host fetch size disagrees with data size");
      }
      if (node_fetching_[event.aux][event.id] != 0) {
        return fail(event, "duplicate in-flight host fetch on one node");
      }
      if (node_cached_[event.aux][event.id] != 0) {
        return fail(event, "host fetch of data already cached on the node");
      }
      ++node_fetching_[event.aux][event.id];
      break;
    }
    case InspectorEventKind::kHostCacheFill: {
      if (node_fetching_.empty() || event.aux >= node_fetching_.size()) {
        return fail(event, "host-cache fill on unknown node");
      }
      if (event.id >= num_data) {
        return fail(event, "host-cache fill of unknown data");
      }
      // The tentpole rule: data never becomes resident on a node that never
      // fetched it over the network.
      if (node_fetching_[event.aux][event.id] == 0) {
        return fail(event, "host-cache fill without a host fetch");
      }
      --node_fetching_[event.aux][event.id];
      node_cached_[event.aux][event.id] = 1;
      host_fill_bytes_ += event.bytes;
      // A delivery answers any outstanding fetch timeout on this (node,
      // data): the timed-out fetch got served after all.
      if (event.aux < timeout_outstanding_.size()) {
        timeout_outstanding_[event.aux][event.id] = 0;
      }
      break;
    }
    case InspectorEventKind::kHostCacheEvict: {
      if (node_cached_.empty() || event.aux >= node_cached_.size()) {
        return fail(event, "host-cache evict on unknown node");
      }
      if (event.id >= num_data || node_cached_[event.aux][event.id] == 0) {
        return fail(event, "host-cache evict of uncached data");
      }
      node_cached_[event.aux][event.id] = 0;
      break;
    }
    case InspectorEventKind::kEdgeReleased: {
      if (dep_pending_.empty()) {
        return fail(event, "edge release on a graph without dependencies");
      }
      if (event.id >= num_tasks || event.aux >= num_tasks) {
        return fail(event, "edge release names an unknown task");
      }
      const auto succs = graph_->successors(event.id);
      if (!std::binary_search(succs.begin(), succs.end(),
                              static_cast<core::TaskId>(event.aux))) {
        return fail(event, "release of an edge not in the graph");
      }
      if (ended_[event.id] == 0 && cancelled_[event.id] == 0) {
        return fail(event, "edge released before its predecessor finished");
      }
      if (dep_release_count_[event.id] >= succs.size()) {
        return fail(event,
                    "edge released more often than the predecessor retired");
      }
      ++dep_release_count_[event.id];
      if (dep_pending_[event.aux] == 0) {
        return fail(event, "edge release underflows the successor's pending "
                           "predecessor count");
      }
      --dep_pending_[event.aux];
      break;
    }
    case InspectorEventKind::kTaskEnabled: {
      if (dep_pending_.empty()) {
        return fail(event, "task enabled on a graph without dependencies");
      }
      if (event.id >= num_tasks) return fail(event, "enable of unknown task");
      if (dep_pending_[event.id] != 0) {
        return fail(event, "task enabled with unretired predecessors");
      }
      if (event.aux != 0 && graph_->num_predecessors(event.id) != 0) {
        return fail(event,
                    "at-load enablement of a task with predecessors");
      }
      break;
    }
    case InspectorEventKind::kTaskUnretired: {
      if (dep_pending_.empty()) {
        return fail(event, "un-retirement on a graph without dependencies");
      }
      if (event.id >= num_tasks) {
        return fail(event, "un-retirement of unknown task");
      }
      if (gpu.alive) return fail(event, "un-retirement for a live gpu");
      if (ended_[event.id] == 0) {
        return fail(event, "un-retirement of a task that never finished");
      }
      if (dep_release_count_[event.id] != graph_->successors(event.id).size()) {
        return fail(event,
                    "un-retirement of a task that had not fully retired");
      }
      // Re-arm the released edges and hand the exactly-once budget back:
      // the re-run on a survivor starts, ends and retires again.
      dep_release_count_[event.id] = 0;
      for (core::TaskId succ : graph_->successors(event.id)) {
        ++dep_pending_[succ];
      }
      started_[event.id] = 0;
      ended_[event.id] = 0;
      break;
    }
    case InspectorEventKind::kNodeDrainStart: {
      if (node_status_.empty() || event.id >= node_status_.size()) {
        return fail(event, "drain fence on unknown node");
      }
      if (node_status_[event.id] != NodeStatus::kActive) {
        return fail(event, "drain fence on a non-active node");
      }
      node_status_[event.id] = NodeStatus::kDraining;
      break;
    }
    case InspectorEventKind::kTaskDrained: {
      if (event.id >= num_tasks) return fail(event, "drain of unknown task");
      if (!gpu.alive) return fail(event, "task drained from a dead gpu");
      if (node_status_.empty() ||
          node_status_[platform_.node_of(event.gpu)] !=
              NodeStatus::kDraining) {
        return fail(event, "task drained from a node that is not draining");
      }
      if (started_[event.id] != 0 || ended_[event.id] != 0) {
        return fail(event, "drain of a task that already ran");
      }
      if (cancelled_[event.id] != 0) {
        return fail(event, "drain of a cancelled task (shed job)");
      }
      break;
    }
    case InspectorEventKind::kDataMigrateStart: {
      if (event.id >= num_data) {
        return fail(event, "migration of unknown data");
      }
      if (node_status_.empty() || event.aux >= node_status_.size()) {
        return fail(event, "migration to unknown node");
      }
      if (node_status_[event.aux] != NodeStatus::kActive) {
        return fail(event, "migration to a non-serving node");
      }
      if (event.bytes != graph_->data_size(event.id)) {
        return fail(event, "migration size disagrees with data size");
      }
      migrate_start_bytes_ += event.bytes;
      break;
    }
    case InspectorEventKind::kDataMigrated: {
      if (event.id >= num_data) {
        return fail(event, "migration of unknown data");
      }
      if (node_status_.empty() || event.aux >= node_status_.size()) {
        return fail(event, "migration to unknown node");
      }
      if (event.bytes != graph_->data_size(event.id)) {
        return fail(event, "migration size disagrees with data size");
      }
      migrate_done_bytes_ += event.bytes;
      if (migrate_done_bytes_ > migrate_start_bytes_) {
        return fail(event, "migration completed without a start");
      }
      break;
    }
    case InspectorEventKind::kNodeDrained: {
      if (node_status_.empty() || event.id >= node_status_.size()) {
        return fail(event, "drain completion on unknown node");
      }
      if (node_status_[event.id] != NodeStatus::kDraining) {
        return fail(event, "drain completed on a node that is not draining");
      }
      for (core::GpuId g = platform_.node_gpu_begin(event.id);
           g < platform_.node_gpu_end(event.id); ++g) {
        GpuState& state = gpus_[g];
        if (state.running != -1 || !state.occ_running.empty()) {
          return fail(event, "node retired with a task still running");
        }
        for (std::uint8_t flag : state.in_flight) {
          if (flag != 0) {
            return fail(event, "node retired with an in-flight fetch");
          }
        }
        // The node powers off: its GPU memory goes away without evictions,
        // like a loss — but the GPUs stay alive for a later re-join.
        std::fill(state.resident.begin(), state.resident.end(), 0);
        std::fill(state.prot.begin(), state.prot.end(), 0);
        state.resident_bytes = 0;
        state.committed_bytes = 0;
        state.scratch_bytes = 0;
      }
      for (std::uint32_t pending : node_fetching_[event.id]) {
        if (pending != 0) {
          return fail(event, "node retired with an outstanding host fetch");
        }
      }
      std::fill(node_cached_[event.id].begin(), node_cached_[event.id].end(),
                0);
      node_status_[event.id] = NodeStatus::kInactive;
      break;
    }
    case InspectorEventKind::kNodeJoinStart: {
      if (node_status_.empty() || event.id >= node_status_.size()) {
        return fail(event, "join of unknown node");
      }
      // An initially-inactive node is never announced, so "active" (the
      // initial assumption) is accepted alongside a drained node.
      if (node_status_[event.id] == NodeStatus::kDraining ||
          node_status_[event.id] == NodeStatus::kWarming ||
          node_status_[event.id] == NodeStatus::kLost) {
        return fail(event, "join of a draining, warming or lost node");
      }
      node_status_[event.id] = NodeStatus::kWarming;
      break;
    }
    case InspectorEventKind::kNodeWarmFill: {
      if (node_status_.empty() || event.aux >= node_status_.size()) {
        return fail(event, "warm fill on unknown node");
      }
      if (node_status_[event.aux] != NodeStatus::kWarming) {
        return fail(event, "warm fill on a node that is not warming");
      }
      if (event.id >= num_data) {
        return fail(event, "warm fill of unknown data");
      }
      if (event.bytes != graph_->data_size(event.id)) {
        return fail(event, "warm fill size disagrees with data size");
      }
      if (node_cached_[event.aux][event.id] != 0) {
        return fail(event, "warm fill of data already cached on the node");
      }
      node_cached_[event.aux][event.id] = 1;
      warm_fill_bytes_ += event.bytes;
      break;
    }
    case InspectorEventKind::kNodeJoined: {
      if (node_status_.empty() || event.id >= node_status_.size()) {
        return fail(event, "join completion on unknown node");
      }
      if (node_status_[event.id] != NodeStatus::kWarming) {
        return fail(event, "join completed without a warm-up");
      }
      node_status_[event.id] = NodeStatus::kActive;
      break;
    }
    case InspectorEventKind::kNodeLost: {
      if (node_status_.empty() || event.id >= node_status_.size()) {
        return fail(event, "loss of unknown node");
      }
      if (node_status_[event.id] == NodeStatus::kLost) {
        return fail(event, "node lost twice");
      }
      node_status_[event.id] = NodeStatus::kLost;
      for (core::GpuId g = platform_.node_gpu_begin(event.id);
           g < platform_.node_gpu_end(event.id); ++g) {
        GpuState& state = gpus_[g];
        if (!state.alive) continue;  // an earlier GPU loss already took it
        state.alive = false;
        if (state.running >= 0) {
          started_[static_cast<std::size_t>(state.running)] = 0;
          state.running = -1;
        }
        for (std::uint32_t co_runner : state.occ_running) {
          started_[co_runner] = 0;
        }
        state.occ_running.clear();
        state.occ_active_warps = 0;
        std::fill(state.resident.begin(), state.resident.end(), 0);
        std::fill(state.in_flight.begin(), state.in_flight.end(), 0);
        std::fill(state.prot.begin(), state.prot.end(), 0);
        state.resident_bytes = 0;
        state.committed_bytes = 0;
        state.scratch_bytes = 0;
      }
      // The host cache dies with the node; in-flight network fetches stay
      // accounted so their fills still balance the wire deliveries.
      std::fill(node_cached_[event.id].begin(), node_cached_[event.id].end(),
                0);
      // The loss terminates the node's suspicion episode and answers any
      // fetch timeout still waiting on this node's behalf (its waiters died
      // with it).
      if (event.id < suspected_.size()) suspected_[event.id] = 0;
      if (event.id < timeout_outstanding_.size()) {
        std::fill(timeout_outstanding_[event.id].begin(),
                  timeout_outstanding_[event.id].end(), 0);
      }
      break;
    }
    case InspectorEventKind::kOccupancyConfig: {
      if (occ_armed_) return fail(event, "occupancy configured twice");
      if (event.id == 0) {
        return fail(event, "occupancy config with zero device warps");
      }
      occ_armed_ = true;
      occ_budget_warps_ = static_cast<std::uint32_t>(event.bytes);
      occ_task_warps_.assign(num_tasks, 0);
      occ_admitted_.assign(num_tasks, 0);
      break;
    }
    case InspectorEventKind::kTaskAdmitted: {
      if (!occ_armed_) {
        return fail(event, "admission without an occupancy config");
      }
      if (event.id >= num_tasks) {
        return fail(event, "admission of unknown task");
      }
      if (occ_admitted_[event.id] != 0 ||
          std::find(gpu.occ_running.begin(), gpu.occ_running.end(),
                    event.id) != gpu.occ_running.end()) {
        return fail(event, "task admitted twice");
      }
      const std::uint32_t warps = static_cast<std::uint32_t>(event.bytes);
      // The budget rule: a busy GPU only takes work that keeps the active
      // load within the admission budget; an idle GPU always admits
      // (forward progress for tasks wider than the budget).
      if (!gpu.occ_running.empty() &&
          gpu.occ_active_warps + warps > occ_budget_warps_) {
        return fail(event, "admission exceeds the warp budget");
      }
      gpu.occ_active_warps += warps;
      if (event.aux != gpu.occ_active_warps) {
        return fail(event, "admission warp tally disagrees with the checker");
      }
      occ_task_warps_[event.id] = warps;
      occ_admitted_[event.id] = 1;
      break;
    }
    case InspectorEventKind::kAdmissionRejected: {
      if (!occ_armed_) {
        return fail(event, "rejection without an occupancy config");
      }
      if (event.id >= num_tasks) {
        return fail(event, "rejection of unknown task");
      }
      if (gpu.occ_running.empty()) {
        return fail(event, "admission rejected on an idle gpu");
      }
      const std::uint32_t warps = static_cast<std::uint32_t>(event.bytes);
      if (gpu.occ_active_warps + warps <= occ_budget_warps_) {
        return fail(event, "rejection of an admissible task");
      }
      if (event.aux != gpu.occ_active_warps) {
        return fail(event, "rejection warp tally disagrees with the checker");
      }
      break;
    }
    case InspectorEventKind::kLinkDegraded:
    case InspectorEventKind::kLinkPartitioned: {
      const bool partition =
          event.kind == InspectorEventKind::kLinkPartitioned;
      if (link_state_.empty() || event.gpu >= platform_.num_nodes ||
          event.id >= platform_.num_nodes || event.gpu == event.id) {
        return fail(event, "link fault names an invalid node pair");
      }
      const std::size_t nodes = platform_.num_nodes;
      if (link_state_[event.gpu * nodes + event.id] != 0) {
        return fail(event, "link fault opened on an already-faulted pair");
      }
      const std::uint8_t kind = partition ? 2 : 1;
      link_state_[event.gpu * nodes + event.id] = kind;
      link_state_[static_cast<std::size_t>(event.id) * nodes + event.gpu] =
          kind;
      break;
    }
    case InspectorEventKind::kLinkRestored: {
      if (link_state_.empty() || event.gpu >= platform_.num_nodes ||
          event.id >= platform_.num_nodes) {
        return fail(event, "link restore names an invalid node pair");
      }
      const std::size_t nodes = platform_.num_nodes;
      const std::uint8_t expected = event.aux != 0 ? 2 : 1;
      if (link_state_[event.gpu * nodes + event.id] != expected) {
        return fail(event, "link restored without a matching open window");
      }
      link_state_[event.gpu * nodes + event.id] = 0;
      link_state_[static_cast<std::size_t>(event.id) * nodes + event.gpu] = 0;
      break;
    }
    case InspectorEventKind::kFetchTimeout: {
      if (timeout_outstanding_.empty()) {
        return fail(event, "fetch timeout on a single-node platform");
      }
      if (event.id >= num_data) {
        return fail(event, "fetch timeout of unknown data");
      }
      const std::uint32_t dest = platform_.node_of(event.gpu);
      if (event.aux >= platform_.num_nodes) {
        return fail(event, "fetch timeout names an unknown source node");
      }
      if (node_fetching_[dest][event.id] == 0) {
        return fail(event, "fetch timeout without an in-flight host fetch");
      }
      timeout_outstanding_[dest][event.id] = 1;
      break;
    }
    case InspectorEventKind::kFetchHedged: {
      if (timeout_outstanding_.empty()) {
        return fail(event, "hedge on a single-node platform");
      }
      if (event.id >= num_data) return fail(event, "hedge of unknown data");
      const std::uint32_t dest = platform_.node_of(event.gpu);
      if (event.aux >= platform_.num_nodes || event.aux == dest) {
        return fail(event, "hedge towards an invalid source node");
      }
      if (timeout_outstanding_[dest][event.id] == 0) {
        return fail(event, "hedge without a preceding fetch timeout");
      }
      // The timed-out fetch is rerouted; a later timeout of the hedged
      // issue re-raises the flag.
      timeout_outstanding_[dest][event.id] = 0;
      break;
    }
    case InspectorEventKind::kHedgeWasted: {
      if (node_fetching_.empty() || event.aux >= node_fetching_.size()) {
        return fail(event, "wasted hedge on unknown node");
      }
      if (event.id >= num_data) {
        return fail(event, "wasted hedge of unknown data");
      }
      // A duplicate delivery is discarded only when the fetch was already
      // served — an in-flight fetch must take the delivery as its fill.
      if (node_fetching_[event.aux][event.id] != 0) {
        return fail(event, "duplicate delivery discarded while the fetch "
                           "was still in flight");
      }
      hedge_wasted_bytes_ += event.bytes;
      break;
    }
    case InspectorEventKind::kNodeSuspected: {
      if (suspected_.empty() || event.id >= suspected_.size()) {
        return fail(event, "suspicion of unknown node");
      }
      if (suspected_[event.id] != 0) {
        return fail(event, "node suspected twice without a clear");
      }
      if (!node_status_.empty() &&
          node_status_[event.id] == NodeStatus::kLost) {
        return fail(event, "suspicion of a lost node");
      }
      suspected_[event.id] = 1;
      break;
    }
    case InspectorEventKind::kNodeSuspicionCleared: {
      if (suspected_.empty() || event.id >= suspected_.size() ||
          suspected_[event.id] == 0) {
        return fail(event, "suspicion cleared without being raised");
      }
      suspected_[event.id] = 0;
      break;
    }
    case InspectorEventKind::kNodeSuspicionEscalated: {
      if (suspected_.empty() || event.id >= suspected_.size() ||
          suspected_[event.id] == 0) {
        return fail(event, "escalation of an unsuspected node");
      }
      if (!node_status_.empty() &&
          node_status_[event.id] == NodeStatus::kLost) {
        return fail(event, "escalation of an already-lost node");
      }
      // The node loss that follows clears the suspicion episode.
      break;
    }
    case InspectorEventKind::kJobsFused: {
      streaming_seen_ = true;
      // Published before the member's kJobArrival: the member must still be
      // unseen (pending) — fusing a released, shed or retired job would
      // double-run its tasks.
      if (event.id < job_state_.size() && job_state_[event.id] != 0) {
        return fail(event, "fusion of a job that already arrived");
      }
      break;
    }
    case InspectorEventKind::kSuperTaskLaunched: {
      if (event.id >= num_tasks) {
        return fail(event, "super-task launch of unknown task");
      }
      if (started_[event.id] == 0) {
        return fail(event, "super-task launch before the leader's start");
      }
      if (event.aux == 0) {
        return fail(event, "super-task launch without riders");
      }
      break;
    }
    case InspectorEventKind::kBatchUnfused: {
      if (event.id >= job_state_.size() || job_state_[event.id] != 1) {
        return fail(event, "unfuse of a job not in flight");
      }
      break;
    }
    case InspectorEventKind::kTierProtect: {
      if (event.id >= num_data) return fail(event, "protect of unknown data");
      ++slo_protected_[event.id];
      break;
    }
    case InspectorEventKind::kTierUnprotect: {
      if (event.id >= num_data || slo_protected_[event.id] == 0) {
        return fail(event, "unprotect without a protection window");
      }
      --slo_protected_[event.id];
      break;
    }
    case InspectorEventKind::kEvictionVetoed: {
      if (event.id >= num_data || slo_protected_[event.id] == 0) {
        return fail(event, "eviction veto reported for unprotected data");
      }
      break;
    }
  }
}

void InvariantChecker::on_run_end(double makespan_us) {
  (void)makespan_us;
  if (!ok_) return;
  for (std::uint32_t task = 0; task < started_.size(); ++task) {
    if (cancelled_[task] != 0) {
      // Cancelled tasks of shed jobs legitimately never run; the main switch
      // already rejects any start/end/reclaim of them.
      continue;
    }
    const std::uint32_t runs =
        static_cast<std::uint32_t>(started_[task] != 0 && ended_[task] != 0);
    if (runs != 1) {
      char buffer[96];
      std::snprintf(buffer, sizeof buffer,
                    "task %u executed %u times (expected once)", task, runs);
      return fail_text(buffer);
    }
    if (complete_notified_[task] == 0) {
      char buffer[96];
      std::snprintf(buffer, sizeof buffer,
                    "task %u completed but never notified", task);
      return fail_text(buffer);
    }
  }
  for (const GpuState& gpu : gpus_) {
    if (gpu.running != -1) {
      char buffer[96];
      std::snprintf(buffer, sizeof buffer,
                    "task %lld still running at run end",
                    static_cast<long long>(gpu.running));
      return fail_text(buffer);
    }
    if (!gpu.occ_running.empty()) {
      char buffer[96];
      std::snprintf(buffer, sizeof buffer,
                    "%zu tasks still co-running at run end",
                    gpu.occ_running.size());
      return fail_text(buffer);
    }
  }
  // Released-edge conservation: at run end every dependency edge must have
  // been released exactly once more than it was re-armed — each task's
  // final retirement released its full out-edge set, and no successor is
  // left waiting.
  if (!dep_pending_.empty()) {
    for (std::uint32_t task = 0; task < dep_pending_.size(); ++task) {
      if (dep_pending_[task] != 0) {
        char buffer[96];
        std::snprintf(buffer, sizeof buffer,
                      "task %u still has %u unreleased predecessor edges at "
                      "run end",
                      task, dep_pending_[task]);
        return fail_text(buffer);
      }
      if (dep_release_count_[task] != graph_->successors(task).size()) {
        char buffer[96];
        std::snprintf(buffer, sizeof buffer,
                      "task %u released %u of %zu out-edges at run end", task,
                      dep_release_count_[task],
                      graph_->successors(task).size());
        return fail_text(buffer);
      }
    }
  }
  // Prefetch hints and output write-backs may legitimately still be on a
  // wire when the last task completes, so no emptiness check on channels,
  // in-flight fetches or scratch here. Network byte conservation, however,
  // is exact: a host-cache fill follows its network delivery within the
  // same simulation event, so at run end every byte delivered on a network
  // channel must have landed in exactly one fill.
  if (!node_fetching_.empty() &&
      net_bytes_delivered_ != host_fill_bytes_ + migrate_done_bytes_ +
                                  warm_fill_bytes_ + hedge_wasted_bytes_) {
    char buffer[224];
    std::snprintf(buffer, sizeof buffer,
                  "network bytes not conserved: %llu delivered vs %llu "
                  "filled into host caches + %llu migrated + %llu "
                  "warm-filled + %llu wasted hedge duplicates",
                  static_cast<unsigned long long>(net_bytes_delivered_),
                  static_cast<unsigned long long>(host_fill_bytes_),
                  static_cast<unsigned long long>(migrate_done_bytes_),
                  static_cast<unsigned long long>(warm_fill_bytes_),
                  static_cast<unsigned long long>(hedge_wasted_bytes_));
    return fail_text(buffer);
  }
  // Every fetch timeout must have been answered by a hedge, a delivery or
  // the destination node's loss before the run ended.
  for (std::uint32_t node = 0; node < timeout_outstanding_.size(); ++node) {
    for (std::uint32_t data = 0; data < timeout_outstanding_[node].size();
         ++data) {
      if (timeout_outstanding_[node][data] != 0) {
        char buffer[128];
        std::snprintf(buffer, sizeof buffer,
                      "fetch of data %u into node %u timed out and was never "
                      "rerouted or served",
                      data, node);
        return fail_text(buffer);
      }
    }
  }
  // Migration byte conservation: every migration a drain started must have
  // landed on its destination node by run end.
  if (migrate_start_bytes_ != migrate_done_bytes_) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  "migration bytes not conserved: %llu started vs %llu "
                  "delivered",
                  static_cast<unsigned long long>(migrate_start_bytes_),
                  static_cast<unsigned long long>(migrate_done_bytes_));
    return fail_text(buffer);
  }
}

}  // namespace mg::sim
