#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace mg::sim {

using core::DataId;
using core::GpuId;
using core::kInvalidTask;
using core::TaskId;

/// "No reachable holder" answer of pick_hedge_source.
constexpr core::NodeId kNoNode = 0xffffffffu;

/// Transfer-retry backoff: the n-th failed attempt (and the n-th re-armed
/// fetch deadline) waits min(base * 2^(n-1), cap) microseconds.
constexpr double kRetryBackoffBaseUs = 20.0;
constexpr double kRetryBackoffCapUs = 2000.0;

/// Events kept for the watchdog's BudgetExceededError excerpt.
constexpr std::size_t kWatchdogTail = 32;

RuntimeEngine::RuntimeEngine(const core::TaskGraph& graph,
                             const core::Platform& platform,
                             core::Scheduler& scheduler, EngineConfig config)
    : graph_(graph),
      platform_(platform),
      scheduler_(scheduler),
      config_(config),
      bus_(events_, platform.bus_bandwidth_bytes_per_s, platform.bus_latency_us),
      popped_(graph.num_tasks(), false) {
  MG_CHECK_MSG(config_.pipeline_depth >= 1, "pipeline depth must be >= 1");
  MG_CHECK_MSG(platform_.num_gpus >= 1, "need at least one GPU");
  MG_CHECK_MSG(platform_.gpu_gflops_per_device.empty() ||
                   platform_.gpu_gflops_per_device.size() ==
                       platform_.num_gpus,
               "per-device speeds must cover every GPU");
  max_footprint_ = graph_.max_task_footprint();
  MG_CHECK_MSG(max_footprint_ <= platform_.gpu_memory_bytes,
               "a task's inputs do not fit in GPU memory: no schedule exists");
  gpus_.resize(platform_.num_gpus);
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    gpus_[gpu].memory = std::make_unique<MemoryManager>(
        gpu, graph_, platform_.gpu_memory_bytes,
        static_cast<TransferRouter&>(*this));
    gpus_[gpu].memory->set_observer(this);
  }
  cluster_active_ = platform_.is_cluster();
  if (cluster_active_) {
    MG_CHECK_MSG(platform_.num_nodes <= platform_.num_gpus,
                 "every node needs at least one GPU");
    nodes_.resize(platform_.num_nodes);
    for (core::NodeId node = 0; node < platform_.num_nodes; ++node) {
      NodeState& state = nodes_[node];
      state.pci = std::make_unique<Bus>(events_,
                                        platform_.bus_bandwidth_bytes_per_s,
                                        platform_.bus_latency_us);
      state.net = std::make_unique<Bus>(events_,
                                        platform_.net_bandwidth_bytes_per_s,
                                        platform_.net_latency_us);
      if (graph_.has_outputs() || checkpointing_enabled()) {
        state.writeback = std::make_unique<Bus>(
            events_, platform_.bus_bandwidth_bytes_per_s,
            platform_.bus_latency_us);
      }
      state.cached.assign(graph_.num_data(), 0);
      state.last_use.assign(graph_.num_data(), 0);
      state.net_fetching.assign(graph_.num_data(), 0);
      state.waiters.assign(graph_.num_data(), {});
    }
  } else if (graph_.has_outputs() || checkpointing_enabled()) {
    // Checkpoint snapshots share the write-back channel: both are
    // host-bound output-state traffic.
    writeback_bus_ = std::make_unique<Bus>(
        events_, platform_.bus_bandwidth_bytes_per_s, platform_.bus_latency_us);
  }
  if (platform_.nvlink_enabled) {
    for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
      nvlink_egress_.push_back(std::make_unique<Bus>(
          events_, platform_.nvlink_bandwidth_bytes_per_s,
          platform_.nvlink_latency_us));
    }
    fetch_from_peer_.assign(platform_.num_gpus,
                            std::vector<std::uint8_t>(graph_.num_data(), 0));
    // Requests queued behind other host transfers get a second routing
    // chance when they reach the head of the bus: a replica may have landed
    // on a peer in the meantime.
    auto reroute = [this](GpuId dst, DataId data, std::uint64_t bytes,
                          Bus::OnComplete& on_complete) {
      // Drain migrations and join warm-fills address an inactive GPU as a
      // stand-in for its node's host: those are host-to-host legs, never
      // device fetches, so they must not be turned into peer copies.
      if (topology_active_ && !gpus_[dst].active) return false;
      const GpuId source = find_peer_holding(dst, data);
      if (source == core::kInvalidGpu) return false;
      start_peer_copy(source, dst, data, bytes, std::move(on_complete));
      return true;
    };
    bus_.set_start_filter(reroute);
    // On a cluster the PCI-in leg gets the same second chance on its node's
    // bus (find_peer_holding already restricts peers to the same node).
    for (NodeState& node : nodes_) node.pci->set_start_filter(reroute);
  }
}

void RuntimeEngine::add_inspector(Inspector* inspector) {
  MG_CHECK_MSG(!ran_, "add_inspector must be called before run()");
  MG_CHECK_MSG(inspector != nullptr, "null inspector");
  inspectors_.push_back(inspector);
}

void RuntimeEngine::set_fault_injector(FaultInjector* injector) {
  MG_CHECK_MSG(!ran_, "set_fault_injector must be called before run()");
  injector_ = injector;
}

void RuntimeEngine::enable_streaming(
    std::span<const std::uint32_t> task_job,
    std::span<const std::vector<TaskId>> job_tasks) {
  MG_CHECK_MSG(!ran_, "enable_streaming must be called before run()");
  MG_CHECK_MSG(!streaming_, "enable_streaming is single-shot");
  MG_CHECK_MSG(task_job.size() == graph_.num_tasks(),
               "task_job must map every task of the union graph");
  MG_CHECK_MSG(!job_tasks.empty(), "streaming needs at least one job");
  MG_CHECK_MSG(scheduler_.begin_streaming(),
               "scheduler does not support streaming (begin_streaming "
               "declined)");
  const auto num_jobs = static_cast<std::uint32_t>(job_tasks.size());
  // The two maps must agree: each job's ascending tasks map back to it and
  // together cover every task, so they partition the graph.
  std::size_t mapped = 0;
  job_remaining_.assign(num_jobs, 0);
  for (std::uint32_t job = 0; job < num_jobs; ++job) {
    const std::vector<TaskId>& tasks = job_tasks[job];
    MG_CHECK_MSG(!tasks.empty(), "job owns no tasks");
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      MG_CHECK_MSG(tasks[i] < task_job.size() && task_job[tasks[i]] == job &&
                       (i == 0 || tasks[i - 1] < tasks[i]),
                   "job_tasks disagrees with task_job");
    }
    mapped += tasks.size();
    job_remaining_[job] = static_cast<std::uint32_t>(tasks.size());
  }
  MG_CHECK_MSG(mapped == task_job.size(),
               "job_tasks must cover every task of the union graph");
  streaming_ = true;
  num_jobs_ = num_jobs;
  task_job_ = task_job;
  job_tasks_ = job_tasks;
  job_state_.assign(num_jobs, JobState::kPending);
  released_.assign(graph_.num_tasks(), false);
}

void RuntimeEngine::release_job(std::uint32_t job) {
  MG_CHECK_MSG(streaming_, "release_job requires streaming mode");
  MG_CHECK_MSG(job < num_jobs_, "bad job id");
  MG_CHECK_MSG(job_state_[job] == JobState::kPending,
               "job already released or shed");
  job_state_[job] = JobState::kReleased;
  ++jobs_released_;
  const std::vector<TaskId>& tasks = job_tasks_[job];
  publish(InspectorEventKind::kJobArrival, 0, job, 0, kNoChannel,
          static_cast<std::uint32_t>(tasks.size()));
  for (TaskId task : tasks) {
    released_[task] = true;
    publish(InspectorEventKind::kTaskReleased, 0, task, 0, kNoChannel, job);
  }
  if (deps_active_) {
    // Only the dependency-enabled subset is poppable now; the rest are
    // announced by notify_task_retired when their last predecessor retires.
    dep_enabled_scratch_.clear();
    for (TaskId task : tasks) {
      if (dep_enabled_[task]) dep_enabled_scratch_.push_back(task);
    }
    scheduler_.notify_job_arrived(job, dep_enabled_scratch_);
  } else {
    scheduler_.notify_job_arrived(job, tasks);
  }
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    if (!gpus_[gpu].alive) continue;
    fill_buffer(gpu);
    try_start(gpu);
  }
}

void RuntimeEngine::shed_job(std::uint32_t job) {
  MG_CHECK_MSG(streaming_, "shed_job requires streaming mode");
  MG_CHECK_MSG(job < num_jobs_, "bad job id");
  MG_CHECK_MSG(job_state_[job] == JobState::kPending,
               "only a pending job can be shed");
  job_state_[job] = JobState::kShed;
  const std::vector<TaskId>& tasks = job_tasks_[job];
  publish(InspectorEventKind::kJobShed, 0, job, 0, kNoChannel,
          static_cast<std::uint32_t>(tasks.size()));
  for (TaskId task : tasks) {
    MG_DCHECK(!popped_[task]);
    popped_[task] = true;  // nobody may ever pop a cancelled task
    ++completed_;          // counts towards termination, not towards metrics
    publish(InspectorEventKind::kTaskCancelled, 0, task, 0, kNoChannel, job);
    consume_planned_uses(task);  // cancelled consumers no longer count
    if (deps_active_) dep_completed_[task] = true;
  }
  if (deps_active_) {
    // A cancelled task never runs, so treat it as retired: cross-job
    // successors must not wait forever on a shed job. Marking the whole job
    // completed first (above) keeps same-job successors from being announced.
    for (TaskId task : tasks) retire_task(0, task);
  }
}

void RuntimeEngine::set_job_retired_callback(
    std::function<void(std::uint32_t)> callback) {
  MG_CHECK_MSG(!ran_, "set_job_retired_callback must be called before run()");
  job_retired_cb_ = std::move(callback);
}

void RuntimeEngine::ensure_slo_state() {
  if (slo_active_) return;
  slo_active_ = true;
  fused_riders_.assign(graph_.num_tasks(), {});
  fused_scale_.assign(graph_.num_tasks(), 0.0);
  veto_count_.assign(graph_.num_data(), 0);
  veto_reported_.assign(graph_.num_data(), 0);
  // Sized once here and never reallocated: the managers read it in place.
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    gpus_[gpu].memory->set_eviction_veto(veto_count_);
  }
}

void RuntimeEngine::fuse_jobs(std::uint32_t leader,
                              std::span<const std::uint32_t> members,
                              double duration_scale) {
  MG_CHECK_MSG(streaming_, "fuse_jobs requires streaming mode");
  MG_CHECK_MSG(!deps_active_,
               "cross-job batching requires a dependency-free graph");
  MG_CHECK_MSG(leader < num_jobs_, "bad leader job id");
  MG_CHECK_MSG(job_state_[leader] == JobState::kPending,
               "fuse_jobs must run before the leader is released");
  MG_CHECK_MSG(duration_scale >= 1.0, "duration_scale below 1");
  if (members.empty()) return;
  ensure_slo_state();
  const std::vector<TaskId>& leader_tasks = job_tasks_[leader];
  FusionGroup group;
  group.leader = leader;
  for (const std::uint32_t member : members) {
    MG_CHECK_MSG(member < num_jobs_ && member != leader, "bad member job id");
    MG_CHECK_MSG(job_state_[member] == JobState::kPending,
                 "fusion member must still be pending");
    const std::vector<TaskId>& member_tasks = job_tasks_[member];
    MG_CHECK_MSG(member_tasks.size() == leader_tasks.size(),
                 "fusion member does not match the leader's template");
    job_state_[member] = JobState::kReleased;
    ++jobs_released_;
    publish(InspectorEventKind::kJobsFused, 0, member, 0, kNoChannel, leader);
    publish(InspectorEventKind::kJobArrival, 0, member, 0, kNoChannel,
            static_cast<std::uint32_t>(member_tasks.size()));
    for (std::size_t i = 0; i < member_tasks.size(); ++i) {
      const TaskId rider = member_tasks[i];
      const TaskId leader_task = leader_tasks[i];
      // The fused launch loads the batch's inputs once: every rider must
      // read exactly the leader task's data (share_data unions).
      const std::span<const DataId> leader_in = graph_.inputs(leader_task);
      const std::span<const DataId> rider_in = graph_.inputs(rider);
      MG_CHECK_MSG(rider_in.size() == leader_in.size() &&
                       std::equal(rider_in.begin(), rider_in.end(),
                                  leader_in.begin()),
                   "fusion member does not share the leader's inputs");
      MG_DCHECK(!popped_[rider]);
      released_[rider] = true;
      popped_[rider] = true;  // the scheduler never sees riders
      publish(InspectorEventKind::kTaskReleased, 0, rider, 0, kNoChannel,
              member);
      fused_riders_[leader_task].push_back(rider);
    }
    group.members.push_back(member);
  }
  for (const TaskId leader_task : leader_tasks) {
    fused_scale_[leader_task] = duration_scale;
  }
  fusion_groups_.push_back(std::move(group));
}

void RuntimeEngine::unfuse_all() {
  if (!slo_active_ || fusion_groups_.empty()) return;
  for (const FusionGroup& group : fusion_groups_) {
    for (const std::uint32_t member : group.members) {
      // Fully retired members stay retired; only still-running batches
      // fall back to member granularity.
      if (job_state_[member] != JobState::kReleased) continue;
      publish(InspectorEventKind::kBatchUnfused, 0, member, 0, kNoChannel,
              group.leader);
    }
    for (const TaskId leader_task : job_tasks_[group.leader]) {
      for (const TaskId rider : fused_riders_[leader_task]) {
        // Uncompleted riders re-enter dispatch as ordinary singleton
        // tasks through the reclaim queue (served ahead of pops).
        popped_[rider] = false;
        reclaimed_.push_back(rider);
      }
      fused_riders_[leader_task].clear();
      fused_scale_[leader_task] = 0.0;
    }
  }
  fusion_groups_.clear();
}

std::uint32_t RuntimeEngine::effective_task_warps(TaskId task) const {
  std::uint32_t warps = graph_.task_warps(task);
  if (slo_active_ && !fused_riders_[task].empty()) {
    for (const TaskId rider : fused_riders_[task]) {
      warps += graph_.task_warps(rider);
    }
  }
  return warps;
}

void RuntimeEngine::complete_rider(GpuId gpu, TaskId rider) {
  GpuState& state = gpus_[gpu];
  ++state.tasks_executed;
  ++completed_;
  // Synthetic lifecycle: the rider computed inside the leader's fused
  // launch, so its start/end collapse onto the leader's completion instant.
  if (occupancy_active_) {
    // Zero-warp admission: the batch's summed footprint was charged to the
    // leader at its own admission.
    publish(InspectorEventKind::kTaskAdmitted, gpu, rider, 0, kNoChannel,
            governor_->active_warps(gpu));
  }
  publish(InspectorEventKind::kTaskStart, gpu, rider);
  publish(InspectorEventKind::kTaskEnd, gpu, rider);
  consume_planned_uses(rider);
  // The scheduler never learned of the rider, so it gets no
  // notify_task_complete call — but inspectors still see the closure.
  publish(InspectorEventKind::kNotifyTaskComplete, gpu, rider);
  count_job_task_done(rider);
}

void RuntimeEngine::count_job_task_done(TaskId task) {
  const std::uint32_t job = task_job_[task];
  MG_DCHECK(job_remaining_[job] > 0);
  if (--job_remaining_[job] != 0) return;
  job_state_[job] = JobState::kRetired;
  ++jobs_retired_;
  publish(InspectorEventKind::kJobComplete, 0, job, 0, kNoChannel,
          static_cast<std::uint32_t>(job_tasks_[job].size()));
  scheduler_.notify_job_retired(job);
  if (job_retired_cb_) {
    // Deferred: the callback may release or shed jobs, which must not
    // re-enter the scheduler from inside its own notify chain.
    events_.schedule_after(0.0, [this, job] { job_retired_cb_(job); });
  }
}

void RuntimeEngine::consume_planned_uses(TaskId task) {
  if (!replication_active_) return;
  for (DataId data : graph_.inputs(task)) {
    MG_DCHECK(remaining_uses_[data] > 0);
    if (--remaining_uses_[data] == 0 &&
        protected_on_[data] != core::kInvalidGpu) {
      release_protection(data, /*uses_exhausted=*/true);
    }
  }
}

void RuntimeEngine::add_eviction_veto(DataId data, std::uint32_t tier) {
  MG_CHECK_MSG(data < graph_.num_data(), "bad data id");
  ensure_slo_state();
  if (veto_count_[data]++ == 0) {
    publish(InspectorEventKind::kTierProtect, 0, data, 0, kNoChannel, tier);
  }
}

void RuntimeEngine::remove_eviction_veto(DataId data) {
  MG_CHECK_MSG(slo_active_ && data < graph_.num_data() &&
                   veto_count_[data] > 0,
               "unbalanced eviction veto");
  if (--veto_count_[data] == 0) {
    veto_reported_[data] = 0;  // a later protection may report again
    publish(InspectorEventKind::kTierUnprotect, 0, data);
    for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
      if (gpus_[gpu].alive) gpus_[gpu].memory->veto_lifted();
    }
  }
}

void RuntimeEngine::on_eviction_vetoed(GpuId gpu, DataId data) {
  // Debounced: at most one event per data per protection window, or make
  // room under pressure would flood the stream on every scan.
  if (veto_reported_[data] != 0) return;
  veto_reported_[data] = 1;
  publish(InspectorEventKind::kEvictionVetoed, gpu, data);
}

void RuntimeEngine::publish_slow(InspectorEventKind kind, GpuId gpu,
                                 std::uint32_t id, std::uint64_t bytes,
                                 std::uint32_t channel, std::uint32_t aux) {
  InspectorEvent event;
  event.time_us = events_.now();
  event.kind = kind;
  event.gpu = gpu;
  event.id = id;
  event.bytes = bytes;
  event.channel = channel;
  event.aux = aux;
  if (watchdog_log_) watchdog_recent_.push(event);
  for (Inspector* inspector : inspectors_) inspector->on_event(event);
}

void RuntimeEngine::attach_wire_observers() {
  auto wire = [this](std::uint32_t channel) {
    return [this, channel](bool started, GpuId dst, DataId data,
                           std::uint64_t bytes) {
      publish(started ? InspectorEventKind::kTransferStart
                      : InspectorEventKind::kTransferEnd,
              dst, data, bytes, channel);
    };
  };
  bus_.set_wire_observer(wire(kChannelHostBus));
  if (writeback_bus_) writeback_bus_->set_wire_observer(wire(kChannelWriteback));
  for (GpuId gpu = 0; gpu < static_cast<GpuId>(nvlink_egress_.size()); ++gpu) {
    nvlink_egress_[gpu]->set_wire_observer(wire(kChannelNvlinkBase + gpu));
  }
  for (core::NodeId node = 0; node < static_cast<core::NodeId>(nodes_.size());
       ++node) {
    nodes_[node].pci->set_wire_observer(wire(kChannelNodePciBase + node));
    nodes_[node].net->set_wire_observer(wire(kChannelNetBase + node));
    if (nodes_[node].writeback) {
      nodes_[node].writeback->set_wire_observer(
          wire(kChannelNodeWritebackBase + node));
    }
  }
}

core::GpuId RuntimeEngine::find_peer_holding(GpuId dst, DataId data) const {
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    if (gpu == dst || !gpus_[gpu].memory->is_present(data)) continue;
    if (cluster_active_ &&
        platform_.node_of(gpu) != platform_.node_of(dst)) {
      continue;  // NVLink does not cross the node boundary
    }
    return gpu;
  }
  return core::kInvalidGpu;
}

void RuntimeEngine::start_peer_copy(GpuId source, GpuId dst, DataId data,
                                    std::uint64_t bytes,
                                    std::function<void()> on_complete) {
  // Pin the replica on the source so it cannot be evicted mid-copy.
  gpus_[source].memory->pin(data);
  fetch_from_peer_[dst][data] = 1;
  nvlink_egress_[source]->request(
      dst, data, bytes,
      [this, source, dst, data, bytes, cb = std::move(on_complete)]() mutable {
        // Runs at delivery — or early, when GPU-loss recovery drains the
        // egress queue. Either endpoint may have died in the meantime.
        if (gpus_[source].alive) gpus_[source].memory->unpin(data);
        if (!gpus_[dst].alive) return;  // delivery to a dead GPU: dropped
        if (!gpus_[source].alive) {
          // The replica's holder died mid-copy: re-route the fetch (another
          // surviving replica, or the host bus).
          fetch_from_peer_[dst][data] = 0;
          request_transfer(dst, data, bytes, std::move(cb),
                           TransferPriority::kHigh);
          return;
        }
        cb();
      });
}

void RuntimeEngine::request_transfer(GpuId dst, DataId data,
                                     std::uint64_t bytes,
                                     std::function<void()> on_complete,
                                     TransferPriority priority) {
  if (platform_.nvlink_enabled) {
    const GpuId source = find_peer_holding(dst, data);
    if (source != core::kInvalidGpu) {
      start_peer_copy(source, dst, data, bytes, std::move(on_complete));
      return;
    }
    fetch_from_peer_[dst][data] = 0;
  }
  if (cluster_active_) {
    request_cluster_transfer(dst, data, bytes, std::move(on_complete),
                             priority);
    return;
  }
  bus_.request(dst, data, bytes, std::move(on_complete), priority);
}

void RuntimeEngine::request_cluster_transfer(GpuId dst, DataId data,
                                             std::uint64_t bytes,
                                             std::function<void()> on_complete,
                                             TransferPriority priority) {
  const core::NodeId node_id = platform_.node_of(dst);
  NodeState& node = nodes_[node_id];
  if (home_node(data) == node_id || node.cached[data] != 0) {
    // Available from this node's host memory: one PCI-in leg.
    if (node.cached[data] != 0) node.last_use[data] = ++node.use_clock;
    node.pci->request(dst, data, bytes, std::move(on_complete), priority);
    return;
  }
  node.waiters[data].push_back({dst, std::move(on_complete), priority});
  if (node.net_fetching[data] != 0) return;  // join the in-flight fetch
  node.net_fetching[data] = 1;
  publish(InspectorEventKind::kHostFetchStart, dst, data, bytes, kNoChannel,
          node_id);
  const core::NodeId home = home_node(data);
  if (netfault_active_ && config_.fetch_timeout_factor > 0.0) {
    // Timed fetch: the delivery routes through the dedup gate (a hedge may
    // win the race) and a deadline event hedges or re-arms on expiry.
    NetFetchState& fetch = net_fetch_[node_id][data];
    fetch.source = home;
    ++fetch.generation;
    fetch.hedges = 0;
    fetch.retries = 0;
    fetch.timed_out = 0;
    issue_net_fetch(node_id, home, dst, data, bytes, priority);
    arm_fetch_deadline(node_id, data, bytes, fetch_deadline_us(bytes));
    return;
  }
  // PCI out of the home node's host memory, one network hop, then the fill
  // fans the data out to every waiting GPU over this node's PCI bus.
  send_over_network(home, dst, dst, data, bytes, priority,
                    [this, node_id, dst, data, bytes] {
                      host_cache_fill(node_id, dst, data, bytes);
                    });
}

void RuntimeEngine::send_over_network(core::NodeId from, GpuId pci_port,
                                      GpuId net_port, DataId data,
                                      std::uint64_t bytes,
                                      TransferPriority priority,
                                      Bus::OnComplete delivered) {
  nodes_[from].pci->request(
      pci_port, data, bytes,
      [this, from, net_port, data, bytes, priority,
       delivered = std::move(delivered)]() mutable {
        nodes_[from].net->request(net_port, data, bytes, std::move(delivered),
                                  priority);
      },
      priority);
}

void RuntimeEngine::host_cache_fill(core::NodeId node_id, GpuId gpu,
                                    DataId data, std::uint64_t bytes) {
  NodeState& node = nodes_[node_id];
  node.net_fetching[data] = 0;
  publish(InspectorEventKind::kHostCacheFill, gpu, data, bytes, kNoChannel,
          node_id);
  const std::uint64_t budget = platform_.host_memory_bytes;
  if (budget > 0 && node.cached_bytes + bytes > budget) {
    host_cache_evict_for(node_id, gpu, bytes);
  }
  if (budget == 0 || node.cached_bytes + bytes <= budget) {
    node.cached[data] = 1;
    node.cached_bytes += bytes;
    node.last_use[data] = ++node.use_clock;
  } else {
    // Larger than the whole cache budget: the data passes through to its
    // waiters without staying resident on the node.
    publish(InspectorEventKind::kHostCacheEvict, gpu, data, bytes, kNoChannel,
            node_id);
  }
  std::vector<NodeWaiter> waiters = std::move(node.waiters[data]);
  node.waiters[data].clear();
  for (NodeWaiter& waiter : waiters) {
    node.pci->request(waiter.gpu, data, bytes, std::move(waiter.on_complete),
                      waiter.priority);
  }
}

void RuntimeEngine::host_cache_evict_for(core::NodeId node_id, GpuId gpu,
                                         std::uint64_t needed) {
  NodeState& node = nodes_[node_id];
  const std::uint64_t budget = platform_.host_memory_bytes;
  while (node.cached_bytes > 0 && node.cached_bytes + needed > budget) {
    DataId victim = core::kInvalidData;
    for (DataId data = 0; data < graph_.num_data(); ++data) {
      if (node.cached[data] == 0) continue;
      if (victim == core::kInvalidData ||
          node.last_use[data] < node.last_use[victim]) {
        victim = data;
      }
    }
    if (victim == core::kInvalidData) break;
    node.cached[victim] = 0;
    node.cached_bytes -= graph_.data_size(victim);
    publish(InspectorEventKind::kHostCacheEvict, gpu, victim,
            graph_.data_size(victim), kNoChannel, node_id);
  }
}

Bus* RuntimeEngine::writeback_bus_for(GpuId gpu) {
  if (cluster_active_) return nodes_[platform_.node_of(gpu)].writeback.get();
  return writeback_bus_.get();
}

void RuntimeEngine::promote(GpuId dst, DataId data) {
  if (cluster_active_) {
    const core::NodeId node_id = platform_.node_of(dst);
    const core::NodeId home = home_node(data);
    nodes_[node_id].pci->promote(dst, data);
    nodes_[home].pci->promote(dst, data);
    nodes_[home].net->promote(dst, data);
    for (NodeWaiter& waiter : nodes_[node_id].waiters[data]) {
      if (waiter.gpu == dst) waiter.priority = TransferPriority::kHigh;
    }
    return;
  }
  bus_.promote(dst, data);
}

core::RunMetrics RuntimeEngine::run() {
  MG_CHECK_MSG(!ran_, "RuntimeEngine::run is single-shot");
  ran_ = true;

  const bool faults_active = injector_ != nullptr && !injector_->plan().empty();
  if (faults_active) {
    const std::string problem =
        injector_->plan().validate(platform_.num_gpus, platform_.num_nodes);
    if (!problem.empty()) throw EngineError("invalid fault plan: " + problem);
  }
  watchdog_log_ = config_.max_events > 0 || config_.max_sim_time_us > 0.0;
  if (watchdog_log_) watchdog_recent_ = RecentEvents(kWatchdogTail);
  alive_gpus_ = platform_.num_gpus;

  MG_CHECK_MSG(config_.checkpoint_interval_us >= 0.0 &&
                   config_.checkpoint_fraction >= 0.0 &&
                   config_.checkpoint_fraction < 1.0,
               "checkpoint interval must be >= 0 and fraction in [0,1)");
  if (checkpointing_enabled()) {
    checkpoint_progress_.assign(graph_.num_tasks(), 0.0);
  }
  MG_CHECK_MSG(config_.occupancy_threshold >= 0.0,
               "occupancy threshold must be >= 0");
  MG_CHECK_MSG(config_.retry_jitter >= 0.0, "retry jitter must be >= 0");
  MG_CHECK_MSG(config_.fetch_timeout_factor >= 0.0 &&
                   config_.suspicion_confirm_window_us >= 0.0,
               "fetch timeout factor and confirm window must be >= 0");
  if (config_.occupancy_threshold > 0.0) {
    // Checkpoint boundaries are scheduled at absolute compute offsets under
    // a constant rate; a sharing set's rate changes with every admission.
    MG_CHECK_MSG(!checkpointing_enabled(),
                 "checkpointing cannot be combined with GPU sharing");
    occupancy_active_ = true;
    governor_ = std::make_unique<occupancy::OccupancyGovernor>(
        platform_.num_gpus, platform_.total_warps(),
        config_.occupancy_threshold);
  }
  if (faults_active && (!injector_->plan().gpu_losses.empty() ||
                        !injector_->plan().node_losses.empty())) {
    orphan_lost_at_us_.assign(graph_.num_tasks(), -1.0);
    if (config_.replicate_hot && platform_.num_gpus >= 2) {
      replication_active_ = true;
      remaining_uses_.resize(graph_.num_data());
      for (DataId data = 0; data < graph_.num_data(); ++data) {
        remaining_uses_[data] =
            static_cast<std::uint32_t>(graph_.consumers(data).size());
      }
      protected_on_.assign(graph_.num_data(), core::kInvalidGpu);
    }
  }

  deps_active_ = graph_.has_dependencies();
  if (deps_active_) {
    MG_CHECK_MSG(scheduler_.begin_dependencies(),
                 "scheduler does not support dependency gating "
                 "(begin_dependencies declined)");
    const std::uint32_t num_tasks = graph_.num_tasks();
    dep_pending_.assign(num_tasks, 0);
    dep_enabled_.assign(num_tasks, false);
    dep_retired_.assign(num_tasks, false);
    dep_completed_.assign(num_tasks, false);
    dep_parked_.assign(num_tasks, false);
    dep_revoked_.assign(num_tasks, false);
    dep_rerun_.assign(num_tasks, false);
    dep_eject_origin_.assign(num_tasks, core::kInvalidGpu);
    for (TaskId task = 0; task < num_tasks; ++task) {
      dep_pending_[task] = graph_.num_predecessors(task);
      dep_enabled_[task] = dep_pending_[task] == 0;
    }
  }

  // Elastic start: only the first initial_active_nodes nodes serve from t=0;
  // the rest idle (GPUs intact but inactive) until begin_node_join, and the
  // shards homed on them are re-homed round-robin onto the serving set
  // (modeling a cluster-wide durable store behind the host memories).
  MG_CHECK_MSG(config_.initial_active_nodes <= platform_.num_nodes,
               "initial_active_nodes exceeds the platform's node count");
  if (config_.initial_active_nodes > 0 &&
      config_.initial_active_nodes < platform_.num_nodes) {
    MG_CHECK_MSG(cluster_active_,
                 "initial_active_nodes needs a multi-node platform");
    ensure_topology_state();
    home_override_.resize(graph_.num_data());
    for (DataId data = 0; data < graph_.num_data(); ++data) {
      const core::NodeId home = platform_.home_node_of(data);
      home_override_[data] = home < config_.initial_active_nodes
                                 ? home
                                 : data % config_.initial_active_nodes;
    }
    for (core::NodeId node = config_.initial_active_nodes;
         node < platform_.num_nodes; ++node) {
      node_status_[node] = NodeStatus::kInactive;
      --active_node_count_;
      for (GpuId gpu = platform_.node_gpu_begin(node);
           gpu < platform_.node_gpu_end(node); ++gpu) {
        gpus_[gpu].active = false;
      }
    }
  }

  util::Stopwatch prepare_watch;
  scheduler_.prepare(graph_, platform_, config_.seed);
  prepare_wall_us_ = prepare_watch.elapsed_us();

  if (topology_active_) {
    // Nodes outside the initial serving set are announced as draining with
    // no orphans: the scheduler must not target their GPUs until a
    // notify_node_added brings them in.
    for (core::NodeId node = 0; node < platform_.num_nodes; ++node) {
      if (node_status_[node] != NodeStatus::kInactive) continue;
      std::vector<GpuId> node_gpus;
      for (GpuId gpu = platform_.node_gpu_begin(node);
           gpu < platform_.node_gpu_end(node); ++gpu) {
        node_gpus.push_back(gpu);
      }
      (void)scheduler_.notify_node_draining(node, node_gpus, {});
    }
  }

  // Wire eviction policies (scheduler-provided, or shared LRU default).
  bool need_default = false;
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    if (scheduler_.eviction_policy(gpu) == nullptr) need_default = true;
  }
  if (need_default) {
    default_policy_ =
        std::make_unique<LruEviction>(platform_.num_gpus, graph_.num_data());
  }
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    core::EvictionPolicy* policy = scheduler_.eviction_policy(gpu);
    gpus_[gpu].memory->set_eviction_policy(policy != nullptr
                                               ? policy
                                               : default_policy_.get());
  }

  if (!inspectors_.empty() || watchdog_log_) attach_wire_observers();
  if (!inspectors_.empty()) {
    for (Inspector* inspector : inspectors_) {
      inspector->on_run_begin(graph_, platform_, scheduler_.name());
    }
    for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
      core::EvictionPolicy* policy = scheduler_.eviction_policy(gpu);
      const std::string_view policy_name =
          policy != nullptr ? policy->name() : default_policy_->name();
      for (Inspector* inspector : inspectors_) {
        inspector->on_eviction_policy(gpu, policy_name);
      }
    }
  }

  if (occupancy_active_) {
    // Announces the warp budget to the observability spine (the invariant
    // checker arms its sharing rules on this event; the report collector
    // opens its schema-v8 occupancy section).
    publish(InspectorEventKind::kOccupancyConfig, 0, platform_.total_warps(),
            governor_->budget_warps(), kNoChannel,
            static_cast<std::uint32_t>(config_.occupancy_threshold * 1e6));
  }

  if (faults_active) {
    schedule_faults();
    if (injector_->has_transfer_faults()) attach_fault_hooks();
  }
  // Network-fault layer: armed by planned link faults, or by the fetch
  // timeout knob on a cluster. Everything else leaves it dormant, keeping
  // the run byte-identical to an engine without the layer.
  if ((faults_active && !injector_->plan().link_faults.empty()) ||
      (cluster_active_ && config_.fetch_timeout_factor > 0.0)) {
    MG_CHECK_MSG(cluster_active_, "link faults need a multi-node platform");
    arm_netfaults();
  }

  if (deps_active_) {
    // The initial ready frontier: tasks without predecessors are enabled at
    // load. Schedulers compute the same frontier in prepare(); the events
    // seed the observability spine (ready-width tracking, checker state).
    for (TaskId task = 0; task < graph_.num_tasks(); ++task) {
      if (dep_enabled_[task]) {
        publish(InspectorEventKind::kTaskEnabled, 0, task, 0, kNoChannel, 1);
      }
    }
  }

  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    const std::vector<DataId> hints = scheduler_.prefetch_hints(gpu);
    gpus_[gpu].hint_queue.assign(hints.begin(), hints.end());
  }
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    fill_buffer(gpu);
    pump_hints(gpu);
  }
  if (replication_active_) maybe_replicate();

  while (completed_ < graph_.num_tasks()) {
    const bool events_exhausted =
        config_.max_events != 0 &&
        events_.events_processed() >= config_.max_events;
    const bool time_exhausted = config_.max_sim_time_us > 0.0 &&
                                events_.now() > config_.max_sim_time_us;
    if (events_exhausted || time_exhausted) {
      char header[192];
      std::snprintf(header, sizeof header,
                    "watchdog budget exceeded (%s): %llu events processed, "
                    "t=%.1fus, %u/%u tasks completed\n",
                    events_exhausted ? "event ceiling" : "simulated-time "
                                                         "ceiling",
                    static_cast<unsigned long long>(events_.events_processed()),
                    events_.now(), completed_, graph_.num_tasks());
      std::string message =
          header + format_serving_state() + format_engine_state();
      if (watchdog_recent_.size() > 0) {
        message += "recent events:\n";
        message += watchdog_recent_.render();
      }
      throw BudgetExceededError(message);
    }
    if (!events_.run_one()) throw_deadlock();
  }

  for (Inspector* inspector : inspectors_) {
    inspector->on_run_end(last_completion_us_);
  }

  core::RunMetrics metrics;
  metrics.per_gpu.resize(platform_.num_gpus);
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    const GpuState& state = gpus_[gpu];
    core::GpuMetrics& out = metrics.per_gpu[gpu];
    out.tasks_executed = state.tasks_executed;
    out.loads = state.loads;
    out.bytes_loaded = state.bytes_loaded;
    out.peer_loads = state.peer_loads;
    out.bytes_from_peers = state.bytes_from_peers;
    out.bytes_written_back = state.bytes_written_back;
    out.evictions = state.evictions;
    out.busy_time_us = state.busy_us;
    out.stall_time_us = std::max(0.0, last_completion_us_ - state.busy_us);
  }
  metrics.makespan_us = last_completion_us_;
  metrics.scheduler_prepare_us = prepare_wall_us_;
  metrics.scheduler_pop_us = pop_wall_us_;
  metrics.total_flops = graph_.total_flops();
  metrics.scheduler_cost_accounted = config_.account_scheduler_cost;
  metrics.faults = fault_metrics_;
  return metrics;
}

void RuntimeEngine::fill_buffer(GpuId gpu) {
  GpuState& state = gpus_[gpu];
  if (!state.alive || !state.active) return;
  while (state.buffer.size() < config_.pipeline_depth) {
    TaskId task = kInvalidTask;
    if (!reclaimed_.empty()) {
      // Orphans of a dead GPU whose scheduler declined to re-own them: the
      // engine serves them to survivors ahead of further pops.
      task = reclaimed_.front();
      reclaimed_.pop_front();
      if (deps_active_ && !dep_enabled_[task]) {
        // A reclaimed task whose predecessor was un-retired by the same
        // loss: park it until the predecessor's re-run retires.
        popped_[task] = true;
        dep_parked_[task] = true;
        continue;
      }
    } else {
      if (!scheduler_.may_pop(gpu)) {
#ifndef NDEBUG
        // Audit the skip: the contract makes this pull side-effect free, so
        // making it (untimed) keeps Debug on Release's decisions.
        MG_CHECK_MSG(scheduler_.pop_task(gpu, *state.memory) == kInvalidTask,
                     "scheduler popped a task after may_pop returned false");
#endif
        state.starved = true;
        return;
      }
      util::Stopwatch pop_watch;
      task = scheduler_.pop_task(gpu, *state.memory);
      const double pop_us = pop_watch.elapsed_us();
      pop_wall_us_ += pop_us;
      if (config_.account_scheduler_cost) {
        state.sched_busy_until_us =
            std::max(events_.now(), state.sched_busy_until_us) + pop_us;
      }
      if (task == kInvalidTask) {
        state.starved = true;
        return;
      }
      MG_CHECK_MSG(task < graph_.num_tasks(), "scheduler returned bad task id");
    }
    MG_CHECK_MSG(!popped_[task], "scheduler returned a task twice");
    MG_CHECK_MSG(!streaming_ || released_[task],
                 "scheduler popped a task whose job has not arrived");
    if (deps_active_ && !dep_enabled_[task]) {
      // A pop is only legitimate for an enabled task — unless an
      // un-retirement revoked the enablement after the scheduler learned of
      // it; then the engine consumes the pop and parks the task until the
      // predecessor's re-run retires.
      MG_CHECK_MSG(dep_revoked_[task],
                   "scheduler popped a task with unretired predecessors");
      popped_[task] = true;
      dep_parked_[task] = true;
      continue;
    }
    popped_[task] = true;
    state.starved = false;
    state.buffer.push_back(task);
    if (state.buffer.size() == 1 && !state.assembly_active) {
      begin_assembly(gpu);
    } else {
      // Prefetch inputs of deeper pipeline entries through the shared bus.
      for (DataId data : graph_.inputs(task)) {
        state.memory->fetch(data, /*demand=*/false);
      }
    }
  }
}

void RuntimeEngine::begin_assembly(GpuId gpu) {
  GpuState& state = gpus_[gpu];
  MG_DCHECK(!state.buffer.empty());
  MG_DCHECK(!state.assembly_active);
  state.assembly_active = true;
  state.assembly_since_us = events_.now();
  state.assembly_pins.clear();
  const TaskId head = state.buffer.front();
  for (DataId data : graph_.inputs(head)) {
    if (state.memory->is_present(data)) {
      state.memory->pin(data);
      state.assembly_pins.push_back(data);
    } else {
      state.memory->fetch(data, /*demand=*/true);
    }
  }
  try_start(gpu);
}

void RuntimeEngine::try_start(GpuId gpu) {
  GpuState& state = gpus_[gpu];
  if (!state.alive || !state.active) return;
  if (!state.assembly_active) return;
  // Sharing off: the device is exclusive — one running task at a time.
  // Sharing on: the governor decides below, once the head is ready.
  if (!occupancy_active_ && state.running != kInvalidTask) return;
  const TaskId head = state.buffer.front();
  if (occupancy_active_ && state.occ_blocked_head == head) {
    return;  // rejected already; a warp release will retry
  }
  if (deps_active_ && !dep_enabled_[head]) {
    // An un-retirement revoked the head's enablement while it sat in the
    // pipeline: stall until the predecessor's re-run retires (retire_task
    // re-polls every worker).
    return;
  }
  bool ready = true;
  for (DataId data : graph_.inputs(head)) {
    if (!state.memory->is_present(data)) {
      ready = false;
      // Self-healing: if the input is neither in flight nor parked on the
      // stalled list, (re-)issue the demand fetch. fetch() deduplicates, so
      // this is a no-op in the common case.
      state.memory->fetch(data, /*demand=*/true);
    }
  }
  if (!ready) return;
  // Reserve the output scratch buffer last (inputs first maximizes reuse of
  // the residency the prefetches built up).
  const std::uint64_t output_bytes = graph_.task_output_bytes(head);
  if (output_bytes > 0 && !state.scratch_reserved) {
    if (!state.memory->try_reserve_scratch(output_bytes)) return;
    state.scratch_reserved = true;
    publish(InspectorEventKind::kScratchReserve, gpu, head, output_bytes);
  }
  if (config_.account_scheduler_cost &&
      events_.now() < state.sched_busy_until_us) {
    // The scheduler is still "thinking" (charged pop cost); re-check then.
    events_.schedule_at(state.sched_busy_until_us,
                        [this, gpu] { try_start(gpu); });
    return;
  }
  if (occupancy_active_) {
    // A fused leader is admitted with the batch's summed footprint; its
    // riders later admit at zero warps.
    const std::uint32_t task_warps = effective_task_warps(head);
    const std::uint32_t warps = governor_->clamp_warps(task_warps);
    if (!governor_->try_admit(gpu, task_warps, events_.now())) {
      state.occ_blocked_head = head;
      publish(InspectorEventKind::kAdmissionRejected, gpu, head, warps,
              kNoChannel, governor_->active_warps(gpu));
      return;
    }
    publish(InspectorEventKind::kTaskAdmitted, gpu, head, warps, kNoChannel,
            governor_->active_warps(gpu));
    scheduler_.notify_occupancy(gpu, governor_->active_warps(gpu),
                                governor_->free_warps(gpu));
  }
  start_task(gpu, head);
}

void RuntimeEngine::start_task(GpuId gpu, TaskId task) {
  GpuState& state = gpus_[gpu];
  MG_DCHECK(state.buffer.front() == task);
  state.buffer.pop_front();
  state.assembly_active = false;
  state.scratch_reserved = false;  // ownership moves to the running task
  // All inputs carry exactly one assembly pin by now (pinned either at
  // begin_assembly or when they landed); those pins become the run pins.
  MG_DCHECK(state.assembly_pins.size() == graph_.inputs(task).size());
  state.assembly_pins.clear();
  for (DataId data : graph_.inputs(task)) state.memory->touch(data);

  double base_duration =
      platform_.compute_time_us(graph_.task_flops(task), gpu);
  // A fused super-task launches the whole batch at once: one kernel at
  // base × (1 + riders × marginal_compute), shared loads already counted
  // once by residency.
  const bool fused = slo_active_ && !fused_riders_[task].empty();
  if (fused) base_duration *= fused_scale_[task];
  publish(InspectorEventKind::kTaskStart, gpu, task);
  if (fused) {
    publish(InspectorEventKind::kSuperTaskLaunched, gpu, task,
            static_cast<std::uint64_t>(base_duration), kNoChannel,
            static_cast<std::uint32_t>(fused_riders_[task].size()));
  }
  if (occupancy_active_) {
    // Join the sharing set: co-runners progress at the old rate up to now,
    // then every member's finish is rescheduled under the new membership.
    occ_accrue(gpu);
    state.running_set.push_back(
        {task, base_duration,
         governor_->clamp_warps(effective_task_warps(task))});
    occ_reschedule(gpu);
    if (!state.buffer.empty()) begin_assembly(gpu);
    fill_buffer(gpu);
    return;
  }
  state.running = task;
  double duration = base_duration;
  if (checkpointing_enabled() && base_duration > 0.0) {
    // Resume from checkpointed progress: only the compute beyond the last
    // committed snapshot re-runs. Snapshots sit at absolute compute
    // boundaries k*interval; each drains in the background on the
    // write-back channel (PCIe is full duplex, compute is not stalled),
    // and the progress becomes durable only when the drain completes.
    const double restored = checkpoint_progress_[task];
    if (restored > 0.0) {
      ++fault_metrics_.tasks_restored;
      fault_metrics_.compute_saved_us += base_duration * restored;
      publish(InspectorEventKind::kProgressRestored, gpu, task, 0, kNoChannel,
              static_cast<std::uint32_t>(restored * 1e6));
    }
    const double interval = config_.checkpoint_interval_us > 0.0
                                ? config_.checkpoint_interval_us
                                : config_.checkpoint_fraction * base_duration;
    const double resume_at = restored * base_duration;
    for (double boundary = interval; boundary < base_duration;
         boundary += interval) {
      if (boundary <= resume_at) continue;  // committed in an earlier run
      const double fraction = boundary / base_duration;
      events_.schedule_after(boundary - resume_at, [this, gpu, task,
                                                    fraction] {
        initiate_checkpoint(gpu, task, fraction);
      });
    }
    duration = base_duration - resume_at;
  }
  state.busy_us += duration;
  state.running_until_us = events_.now() + duration;
  events_.schedule_after(duration, [this, gpu, task] { finish_task(gpu, task); });

  if (!state.buffer.empty()) begin_assembly(gpu);
  fill_buffer(gpu);
}

void RuntimeEngine::finish_task(GpuId gpu, TaskId task) {
  GpuState& state = gpus_[gpu];
  // Stale completion of a task that was interrupted by a GPU loss (its
  // finish event cannot be cancelled; the task was reclaimed instead).
  if (!state.alive) return;
  MG_DCHECK(state.running == task);
  state.running = kInvalidTask;
  complete_task(gpu, task);
}

bool RuntimeEngine::is_running_here(const GpuState& state,
                                    TaskId task) const {
  if (!occupancy_active_) return state.running == task;
  for (const RunningTask& entry : state.running_set) {
    if (entry.task == task) return true;
  }
  return false;
}

double RuntimeEngine::occ_slowdown(const GpuState& state) const {
  std::uint64_t active = 0;
  for (const RunningTask& entry : state.running_set) active += entry.warps;
  const double ratio = static_cast<double>(active) /
                       static_cast<double>(platform_.total_warps());
  return std::max(1.0, ratio);
}

void RuntimeEngine::occ_accrue(GpuId gpu) {
  GpuState& state = gpus_[gpu];
  const double now = events_.now();
  const double elapsed = now - state.occ_last_update_us;
  state.occ_last_update_us = now;
  if (elapsed <= 0.0 || state.running_set.empty()) return;
  const double rate = 1.0 / occ_slowdown(state);
  for (RunningTask& entry : state.running_set) {
    entry.remaining_solo_us =
        std::max(0.0, entry.remaining_solo_us - elapsed * rate);
  }
  // Busy while anything runs — the wall-clock generalization of the
  // exclusive model's sum of task durations.
  state.busy_us += elapsed;
}

void RuntimeEngine::occ_reschedule(GpuId gpu) {
  GpuState& state = gpus_[gpu];
  const std::uint64_t epoch = ++state.occ_epoch;
  if (state.running_set.empty()) return;
  const double slowdown = occ_slowdown(state);
  for (const RunningTask& entry : state.running_set) {
    events_.schedule_after(entry.remaining_solo_us * slowdown,
                           [this, gpu, task = entry.task, epoch] {
                             occ_finish_task(gpu, task, epoch);
                           });
  }
}

void RuntimeEngine::occ_finish_task(GpuId gpu, TaskId task,
                                    std::uint64_t epoch) {
  GpuState& state = gpus_[gpu];
  // Stale under a membership change (someone joined or left since this
  // finish was scheduled — the task's real finish was rescheduled), or the
  // GPU died and the set was reclaimed.
  if (!state.alive || epoch != state.occ_epoch) return;
  occ_accrue(gpu);
  auto it = state.running_set.begin();
  while (it != state.running_set.end() && it->task != task) ++it;
  MG_DCHECK(it != state.running_set.end());
  governor_->release(gpu, it->warps, events_.now());
  state.running_set.erase(it);
  state.occ_blocked_head = kInvalidTask;  // freed warps may admit the head
  // Survivors speed up (or keep the solo rate): reschedule their finishes
  // before the completion fan-out can admit new work.
  occ_reschedule(gpu);
  scheduler_.notify_occupancy(gpu, governor_->active_warps(gpu),
                              governor_->free_warps(gpu));
  complete_task(gpu, task);
}

void RuntimeEngine::occ_reclaim_running(GpuId gpu,
                                        std::vector<TaskId>& orphans) {
  GpuState& state = gpus_[gpu];
  // Wall time until the loss is already in busy_us (incremental accrual);
  // unlike the exclusive path there is nothing to unwind.
  occ_accrue(gpu);
  for (const RunningTask& entry : state.running_set) {
    orphans.push_back(entry.task);
  }
  state.running_set.clear();
  ++state.occ_epoch;  // in-flight finish events turn stale
  state.occ_blocked_head = kInvalidTask;
  governor_->reset_gpu(gpu, events_.now());
}

void RuntimeEngine::complete_task(GpuId gpu, TaskId task) {
  GpuState& state = gpus_[gpu];
  ++state.tasks_executed;
  ++completed_;
  last_completion_us_ = events_.now();
  publish(InspectorEventKind::kTaskEnd, gpu, task);
  if (!orphan_lost_at_us_.empty() && orphan_lost_at_us_[task] >= 0.0) {
    // An orphan finished its re-run on a survivor: the recovery latency is
    // the span from the loss that reclaimed it to this completion.
    fault_metrics_.recovery_latency_us.push_back(events_.now() -
                                                 orphan_lost_at_us_[task]);
    orphan_lost_at_us_[task] = -1.0;
  }
  if (slo_active_ && !fused_riders_[task].empty()) {
    // Super-task fan-out: every rider computed inside this launch — retire
    // them (and their member jobs) before the leader's inputs are unpinned
    // and before the completion notification, whose push-prefetch may evict
    // the shared inputs the riders' synthetic starts must still see.
    for (const TaskId rider : fused_riders_[task]) complete_rider(gpu, rider);
    fused_riders_[task].clear();
    fused_scale_[task] = 0.0;
  }
  for (DataId data : graph_.inputs(task)) state.memory->unpin(data);
  consume_planned_uses(task);
  // Output write-back: travels host-bound on the dedicated channel; its
  // scratch stays allocated until the transfer completes. The task itself
  // is done — write-back only delays memory reuse, not the completion.
  const std::uint64_t output_bytes = graph_.task_output_bytes(task);
  if (output_bytes > 0) {
    // On a dependency-gated run the retirement only becomes durable when
    // this drain completes; a GPU loss before then un-retires the task.
    if (deps_active_) state.undurable.push_back(task);
    publish(InspectorEventKind::kWriteBackStart, gpu, task, output_bytes);
    writeback_bus_for(gpu)->request(gpu, task, output_bytes, [this, gpu, task,
                                                              output_bytes] {
      GpuState& wb_state = gpus_[gpu];
      // The GPU died while its write-back was on the wire: nothing to
      // account, no scratch left to release.
      if (!wb_state.alive) return;
      if (deps_active_) {
        const auto durable = std::find(wb_state.undurable.begin(),
                                       wb_state.undurable.end(), task);
        if (durable != wb_state.undurable.end()) {
          wb_state.undurable.erase(durable);
        }
      }
      wb_state.bytes_written_back += output_bytes;
      publish(InspectorEventKind::kWriteBackEnd, gpu, task, output_bytes);
      // Published before the release: freeing the scratch may restart a
      // stalled fetch, whose commitment must follow the release.
      publish(InspectorEventKind::kScratchRelease, gpu, task, output_bytes);
      wb_state.memory->release_scratch(output_bytes);
      if (topology_active_ && !wb_state.active) {
        // The last write-back of a draining node may complete its drain.
        maybe_finish_drain(platform_.node_of(gpu));
        return;
      }
      // Freed scratch may unblock this GPU's next task or admit a hint.
      try_start(gpu);
      pump_hints(gpu);
    });
  }
  if (deps_active_ && dep_rerun_[task]) {
    // Re-run of an un-retired task: the scheduler was already told this
    // task completed before the loss rolled the completion back; a second
    // notification would corrupt its bookkeeping.
    dep_rerun_[task] = false;
  } else {
    // An ejected-then-reclaimed task may have re-run on a different GPU;
    // the scheduler still accounts it in the pipeline it was popped into,
    // so report the completion against that GPU.
    GpuId notify_gpu = gpu;
    if (!dep_eject_origin_.empty() &&
        dep_eject_origin_[task] != core::kInvalidGpu) {
      notify_gpu = dep_eject_origin_[task];
      dep_eject_origin_[task] = core::kInvalidGpu;
    }
    scheduler_.notify_task_complete(notify_gpu, task);
    publish(InspectorEventKind::kNotifyTaskComplete, notify_gpu, task);
  }
  if (streaming_) count_job_task_done(task);
  if (deps_active_) {
    dep_completed_[task] = true;
    retire_task(gpu, task);
  }
  if (replication_active_) maybe_replicate();
  fill_buffer(gpu);
  try_start(gpu);
  retry_starved();
  if (topology_active_ && !state.active) {
    // The drain fence let this running task finish; it may have been the
    // node's last outstanding work.
    maybe_finish_drain(platform_.node_of(gpu));
  }
}

void RuntimeEngine::retire_task(GpuId gpu, TaskId task) {
  MG_DCHECK(!dep_retired_[task]);
  dep_retired_[task] = true;
  // Release the out-edges and collect the tasks whose last unretired
  // predecessor this was. A successor is announced to the scheduler exactly
  // once, when it becomes fully poppable (enabled, and — streamed — its job
  // arrived); parked orphans re-enter the engine's reclaim queue instead.
  dep_enabled_scratch_.clear();
  const std::span<const TaskId> successors = graph_.successors(task);
  const std::span<const std::uint8_t> kinds = graph_.successor_kinds(task);
  bool woke_work = false;
  for (std::size_t i = 0; i < successors.size(); ++i) {
    const TaskId succ = successors[i];
    publish(InspectorEventKind::kEdgeReleased, gpu, task, kinds[i], kNoChannel,
            succ);
    MG_DCHECK(dep_pending_[succ] > 0);
    if (--dep_pending_[succ] != 0) continue;
    dep_enabled_[succ] = true;
    dep_revoked_[succ] = false;
    if (dep_completed_[succ]) continue;  // finished before a revocation
    publish(InspectorEventKind::kTaskEnabled, gpu, succ);
    if (dep_parked_[succ]) {
      dep_parked_[succ] = false;
      popped_[succ] = false;  // it will legitimately be served again
      reclaimed_.push_back(succ);
      woke_work = true;
    } else if (!popped_[succ] && (!streaming_ || released_[succ])) {
      dep_enabled_scratch_.push_back(succ);
      woke_work = true;
    } else if (popped_[succ]) {
      woke_work = true;  // buffered on a survivor: its head gate may open
    }
  }
  scheduler_.notify_task_retired(task, dep_enabled_scratch_);
  if (!woke_work) return;
  for (GpuId other = 0; other < platform_.num_gpus; ++other) {
    if (!gpus_[other].alive) continue;
    fill_buffer(other);
    try_start(other);
  }
}

void RuntimeEngine::unretire_task(GpuId gpu, TaskId task) {
  GpuState& state = gpus_[gpu];
  MG_DCHECK(dep_retired_[task] && dep_completed_[task]);
  publish(InspectorEventKind::kTaskUnretired, gpu, task);
  dep_retired_[task] = false;
  dep_completed_[task] = false;
  dep_rerun_[task] = true;
  popped_[task] = false;
  // Unwind the completion: the re-run on a survivor counts instead. The
  // compute time the dead GPU really spent stays in its busy_us.
  MG_DCHECK(completed_ > 0 && state.tasks_executed > 0);
  --completed_;
  --state.tasks_executed;
  ++fault_metrics_.tasks_reclaimed;
  if (!orphan_lost_at_us_.empty()) orphan_lost_at_us_[task] = events_.now();
  // Revoke the enablements this retirement granted: successors wait for the
  // re-run (a successor that already finished keeps its completion — the
  // rollback does not cascade).
  for (TaskId succ : graph_.successors(task)) {
    if (dep_pending_[succ]++ == 0 && !dep_completed_[succ]) {
      dep_enabled_[succ] = false;
      dep_revoked_[succ] = true;
      // If the successor already sits in a survivor's pipeline, pull it out:
      // left in place it would stall that GPU at the head gate while its
      // re-running predecessor queues *behind* it — a deadlock.
      if (popped_[succ]) eject_revoked(gpu, succ);
    }
  }
  if (replication_active_) {
    // The re-run will consume its inputs again.
    for (DataId data : graph_.inputs(task)) ++remaining_uses_[data];
  }
  if (streaming_) {
    const std::uint32_t job = task_job_[task];
    if (job_remaining_[job]++ == 0) {
      // The job's retirement itself rolls back. The retired callback may
      // already have fired — admission decisions it took stand.
      MG_DCHECK(job_state_[job] == JobState::kRetired);
      job_state_[job] = JobState::kReleased;
      --jobs_retired_;
    }
  }
  // Committed progress snapshots (checkpoint_progress_) are host-durable
  // and survive the loss: the re-run resumes from the last committed
  // fraction, but only after its own predecessors have re-retired.
  reclaimed_.push_back(task);
}

void RuntimeEngine::eject_revoked(GpuId lost_gpu, TaskId task) {
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    GpuState& state = gpus_[gpu];
    // A running revocation victim is left alone: it started legally before
    // the rollback, and a finished successor keeps its completion anyway.
    if (!state.alive || is_running_here(state, task)) continue;
    const auto it = std::find(state.buffer.begin(), state.buffer.end(), task);
    if (it == state.buffer.end()) continue;
    const bool was_head = it == state.buffer.begin();
    state.buffer.erase(it);
    if (was_head && state.assembly_active) {
      abandon_assembly(gpu, task);
      if (!state.buffer.empty()) begin_assembly(gpu);
    }
    // Park it popped: the predecessor's re-retirement routes it back through
    // the reclaim queue (retire_task's unpark branch). The scheduler still
    // sees it in this GPU's pipeline, so remember where to report its
    // eventual completion.
    dep_parked_[task] = true;
    if (dep_eject_origin_[task] == core::kInvalidGpu) {
      // Repeated ejections keep the first origin: that is still the pipeline
      // the scheduler believes the task sits in.
      dep_eject_origin_[task] = gpu;
    }
    ++fault_metrics_.tasks_reclaimed;
    if (!orphan_lost_at_us_.empty()) orphan_lost_at_us_[task] = events_.now();
    publish(InspectorEventKind::kTaskReclaimed, lost_gpu, task);
    return;
  }
}

void RuntimeEngine::abandon_assembly(GpuId gpu, TaskId head) {
  GpuState& state = gpus_[gpu];
  // The assembly's pins and scratch belong to a start that can no longer
  // happen here.
  for (DataId data : state.assembly_pins) state.memory->unpin(data);
  state.assembly_pins.clear();
  state.assembly_active = false;
  if (state.scratch_reserved) {
    const std::uint64_t output_bytes = graph_.task_output_bytes(head);
    publish(InspectorEventKind::kScratchRelease, gpu, head, output_bytes);
    state.memory->release_scratch(output_bytes);
    state.scratch_reserved = false;
  }
}

void RuntimeEngine::pump_hints(GpuId gpu) {
  GpuState& state = gpus_[gpu];
  while (!state.hint_queue.empty()) {
    const DataId data = state.hint_queue.front();
    if (!state.memory->fetch_hint(data, config_.hints_may_evict)) {
      break;  // no room right now: retry when memory is freed
    }
    state.hint_queue.pop_front();
  }
}

void RuntimeEngine::retry_starved() {
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    if (gpus_[gpu].starved) fill_buffer(gpu);
  }
}

void RuntimeEngine::on_data_loaded(GpuId gpu, DataId data) {
  GpuState& state = gpus_[gpu];
  const bool from_peer =
      platform_.nvlink_enabled && fetch_from_peer_[gpu][data] != 0;
  if (from_peer) {
    ++state.peer_loads;
    state.bytes_from_peers += graph_.data_size(data);
  } else {
    ++state.loads;
    state.bytes_loaded += graph_.data_size(data);
    if (fault_metrics_.gpu_losses > 0) ++fault_metrics_.post_loss_host_loads;
  }
  if (replication_active_ && protected_on_[data] != core::kInvalidGpu &&
      protected_on_[data] != gpu) {
    // A second copy landed: the survivor's replica is no longer the sole
    // copy and returns to the regular eviction regime.
    release_protection(data, /*uses_exhausted=*/false);
  }
  publish(InspectorEventKind::kLoadComplete, gpu, data,
          graph_.data_size(data), kNoChannel, from_peer ? 1 : 0);
  scheduler_.notify_data_loaded(gpu, data);
  publish(InspectorEventKind::kNotifyDataLoaded, gpu, data);
  // If the landed data is an input of the task being assembled, pin it so a
  // later prefetch's eviction cannot take it back before the task starts.
  if (state.assembly_active) {
    const TaskId head = state.buffer.front();
    const auto inputs = graph_.inputs(head);
    if (std::find(inputs.begin(), inputs.end(), data) != inputs.end() &&
        std::find(state.assembly_pins.begin(), state.assembly_pins.end(),
                  data) == state.assembly_pins.end()) {
      state.memory->pin(data);
      state.assembly_pins.push_back(data);
    }
  }
  try_start(gpu);
  retry_starved();
  if (topology_active_ && !state.active) {
    // A fetch that was on the wire at the drain fence just landed; the
    // manager may be quiescent now.
    maybe_finish_drain(platform_.node_of(gpu));
  }
}

void RuntimeEngine::on_data_evicted(GpuId gpu, DataId data) {
  GpuState& state = gpus_[gpu];
  ++state.evictions;
  publish(InspectorEventKind::kEvict, gpu, data, graph_.data_size(data),
          kNoChannel, state.memory->pin_count(data));
  scheduler_.notify_data_evicted(gpu, data);
  publish(InspectorEventKind::kNotifyDataEvicted, gpu, data);
  // The freed space may admit the next push-time prefetch hint — but this
  // callback runs from inside make_room(), whose caller still needs the
  // space it is freeing. Defer the pump until the current operation is done.
  if (!state.hint_queue.empty()) {
    events_.schedule_after(0.0, [this, gpu] { pump_hints(gpu); });
  }
}

void RuntimeEngine::on_fetch_started(GpuId gpu, DataId data, bool demand) {
  publish(InspectorEventKind::kFetchStart, gpu, data, graph_.data_size(data),
          kNoChannel, demand ? 1 : 0);
}

void RuntimeEngine::on_replica_shed(GpuId gpu, DataId data) {
  ++fault_metrics_.replicas_shed;
  publish(InspectorEventKind::kReplicaShed, gpu, data, graph_.data_size(data));
}

std::string RuntimeEngine::format_engine_state() const {
  std::string out;
  char line[256];
  // Pending transfers and the oldest blocked task — the first two things
  // needed when triaging a stuck (often faulted) run.
  std::size_t nvlink_pending = 0;
  for (const auto& egress : nvlink_egress_) nvlink_pending += egress->pending();
  std::snprintf(line, sizeof line,
                "  pending transfers: host-bus=%zu writeback=%zu nvlink=%zu\n",
                bus_.pending(),
                writeback_bus_ ? writeback_bus_->pending() : std::size_t{0},
                nvlink_pending);
  out += line;
  for (core::NodeId node = 0; node < static_cast<core::NodeId>(nodes_.size());
       ++node) {
    const NodeState& state = nodes_[node];
    std::snprintf(line, sizeof line,
                  "  node%u: pci=%zu net=%zu writeback=%zu host-cache=%llu "
                  "bytes\n",
                  node, state.pci->pending(), state.net->pending(),
                  state.writeback ? state.writeback->pending() : std::size_t{0},
                  static_cast<unsigned long long>(state.cached_bytes));
    out += line;
  }
  {
    GpuId blocked_gpu = core::kInvalidGpu;
    double oldest_us = 0.0;
    for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
      const GpuState& state = gpus_[gpu];
      if (!state.alive || !state.assembly_active || has_running_work(state)) {
        continue;
      }
      if (blocked_gpu == core::kInvalidGpu ||
          state.assembly_since_us < oldest_us) {
        blocked_gpu = gpu;
        oldest_us = state.assembly_since_us;
      }
    }
    if (blocked_gpu != core::kInvalidGpu) {
      std::snprintf(line, sizeof line,
                    "  oldest blocked task: T%u on gpu%u (assembling since "
                    "t=%.1fus)\n",
                    gpus_[blocked_gpu].buffer.front(), blocked_gpu, oldest_us);
      out += line;
    }
  }
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    const GpuState& state = gpus_[gpu];
    std::snprintf(
        line, sizeof line,
        "  gpu%u:%s running=%d buffered=%zu starved=%d stalled=%zu "
        "used=%llu/%llu assembly=%d\n",
        gpu, state.alive ? (state.active ? "" : " INACTIVE") : " DEAD",
        state.running == kInvalidTask ? -1 : static_cast<int>(state.running),
        state.buffer.size(), state.starved ? 1 : 0,
        state.memory->stalled_fetches(),
        static_cast<unsigned long long>(state.memory->used_bytes()),
        static_cast<unsigned long long>(state.memory->capacity_bytes()),
        state.assembly_active ? 1 : 0);
    out += line;
    if (occupancy_active_ && !state.running_set.empty()) {
      std::snprintf(line, sizeof line, "    co-running (%u/%u warps):",
                    governor_->active_warps(gpu), governor_->total_warps());
      out += line;
      for (const RunningTask& entry : state.running_set) {
        std::snprintf(line, sizeof line, " T%u(w=%u rem=%.1fus)", entry.task,
                      entry.warps, entry.remaining_solo_us);
        out += line;
      }
      out += '\n';
    }
    if (!state.buffer.empty()) {
      const TaskId head = state.buffer.front();
      std::snprintf(line, sizeof line, "    head task %u inputs:", head);
      out += line;
      for (DataId data : graph_.inputs(head)) {
        std::snprintf(line, sizeof line, " d%u(res=%d pins=%u)", data,
                      static_cast<int>(state.memory->residency(data)),
                      state.memory->pin_count(data));
        out += line;
      }
      out += '\n';
    }
    out += "    resident:";
    for (DataId data : state.memory->resident()) {
      std::snprintf(line, sizeof line, " d%u(pins=%u)", data,
                    state.memory->pin_count(data));
      out += line;
    }
    out += '\n';
  }
  return out;
}

void RuntimeEngine::throw_deadlock() const {
  char header[160];
  std::snprintf(header, sizeof header,
                "simulation deadlock — scheduler or policy bug: %u/%u tasks "
                "completed, event queue empty at t=%.1fus\n",
                completed_, graph_.num_tasks(), events_.now());
  std::string message = header;
  if (deps_active_) {
    std::uint32_t blocked = 0;
    std::uint32_t parked = 0;
    for (TaskId task = 0; task < graph_.num_tasks(); ++task) {
      if (!dep_enabled_[task] && !dep_completed_[task]) ++blocked;
      if (dep_parked_[task]) ++parked;
    }
    char deps[128];
    std::snprintf(deps, sizeof deps,
                  "dependencies: %u tasks awaiting predecessors (%u parked)\n",
                  blocked, parked);
    message += deps;
  }
  throw DeadlockError(message + format_serving_state() +
                      format_engine_state());
}

std::string RuntimeEngine::format_serving_state() const {
  if (!streaming_) return {};
  char line[128];
  std::snprintf(line, sizeof line,
                "serving: %u jobs in flight (%u released, %u retired of %u)\n",
                jobs_in_flight(), jobs_released_, jobs_retired_, num_jobs_);
  return line;
}

void RuntimeEngine::schedule_faults() {
  const FaultPlan& plan = injector_->plan();
  for (const FaultPlan::GpuLoss& loss : plan.gpu_losses) {
    events_.schedule_at(loss.time_us,
                        [this, gpu = loss.gpu] { fail_gpu(gpu); });
  }
  for (const FaultPlan::NodeLoss& loss : plan.node_losses) {
    events_.schedule_at(loss.time_us,
                        [this, node = loss.node] { fail_node(node); });
  }
  for (const FaultPlan::CapacityShock& shock : plan.capacity_shocks) {
    events_.schedule_at(shock.time_us,
                        [this, gpu = shock.gpu,
                         bytes = shock.capacity_bytes] {
                          apply_capacity_shock(gpu, bytes);
                        });
  }
}

void RuntimeEngine::attach_fault_hooks() {
  if (config_.retry_jitter > 0.0) {
    jitter_state_ = config_.seed != 0 ? config_.seed : 0x9e3779b97f4a7c15ull;
  }
  auto hook = [this](std::uint32_t channel) {
    return [this, channel](GpuId dst, DataId data, std::uint64_t bytes,
                           std::uint32_t attempt) -> double {
      // Deliveries towards a dead GPU land in its deactivated memory
      // manager (a no-op); failing and retrying them would only keep the
      // request alive forever.
      if (!gpus_[dst].alive) return -1.0;
      if (!injector_->should_fail_transfer(channel, events_.now(), attempt)) {
        return -1.0;
      }
      ++fault_metrics_.transfer_retries;
      fault_metrics_.wasted_transfer_bytes += bytes;
      publish(InspectorEventKind::kTransferRetry, dst, data, bytes, channel,
              attempt);
      const double exponent =
          static_cast<double>(std::min<std::uint32_t>(attempt - 1, 30));
      double backoff = std::min(kRetryBackoffCapUs,
                                kRetryBackoffBaseUs * std::exp2(exponent));
      if (config_.retry_jitter > 0.0) {
        // One xorshift64 draw per failed attempt de-synchronizes concurrent
        // retries; with the knob at its default of 0 no draw happens and the
        // schedule stays byte-identical.
        jitter_state_ ^= jitter_state_ << 13;
        jitter_state_ ^= jitter_state_ >> 7;
        jitter_state_ ^= jitter_state_ << 17;
        const double u = static_cast<double>(jitter_state_ >> 11) * 0x1.0p-53;
        backoff *= 1.0 + config_.retry_jitter * u;
      }
      return backoff;
    };
  };
  bus_.set_fault_hook(hook(kChannelHostBus));
  for (GpuId gpu = 0; gpu < static_cast<GpuId>(nvlink_egress_.size()); ++gpu) {
    nvlink_egress_[gpu]->set_fault_hook(hook(kChannelNvlinkBase + gpu));
  }
  // The writeback channel is deliberately left un-hooked (see FaultPlan).
}

void RuntimeEngine::fail_gpu(GpuId gpu) {
  GpuState& state = gpus_[gpu];
  if (!state.alive) return;
  if (alive_gpus_ == 1) {
    throw EngineError(
        "fault plan failed the last surviving GPU; no device left to finish "
        "the workload");
  }
  // Recovery reasons about member granularity: break every super-task batch
  // before orphans are collected, so uncompleted riders re-dispatch as
  // ordinary tasks on the survivors.
  unfuse_all();
  std::vector<TaskId> orphans;
  stop_gpu(gpu, orphans);

  // Tasks to re-run because of this loss: buffered/running orphans plus —
  // on a dependency-gated run — completions whose write-back never drained.
  const auto lost_tasks =
      static_cast<std::uint32_t>(orphans.size() + state.undurable.size());
  publish(InspectorEventKind::kGpuLost, gpu, 0, state.memory->used_bytes(),
          kNoChannel, lost_tasks);
  MG_TRACE("gpu%u lost at t=%.1fus, %zu orphans", gpu, events_.now(),
           orphans.size());
  state.memory->deactivate();

  // Transfers still queued towards the dead GPU are pointless; drop them so
  // the shared channels stop burning time on them. (A transfer already on
  // the wire, or waiting out a retry backoff, cannot be drained — it
  // delivers into the deactivated manager, a no-op.) On a cluster the
  // queues are left intact: an intermediate network-chain hop carries a
  // continuation that other waiting GPUs of the node depend on, so every
  // leg runs to completion and deliveries into the deactivated manager are
  // dropped at the endpoint instead.
  if (!cluster_active_) {
    (void)bus_.drain_pending_to(gpu);
    if (writeback_bus_) (void)writeback_bus_->drain_pending_to(gpu);
  }
  if (platform_.nvlink_enabled && !cluster_active_) {
    for (GpuId src = 0; src < platform_.num_gpus; ++src) {
      // The dead GPU's own egress port goes completely dark; other ports
      // only lose their requests towards the dead GPU. Invoking the drained
      // wrapped completions immediately lets each one unpin its source and
      // re-route fetches that lost their replica holder (see
      // start_peer_copy).
      std::vector<Bus::Request> drained =
          src == gpu ? nvlink_egress_[src]->drain_all_pending()
                     : nvlink_egress_[src]->drain_pending_to(gpu);
      for (Bus::Request& request : drained) request.on_complete();
    }
    fetch_from_peer_[gpu].assign(graph_.num_data(), 0);
  }

  for (TaskId task : orphans) reclaim_orphan(gpu, task);
  unretire_undurable(gpu);
  if (replication_active_) {
    // The dead GPU's protections (if any) died with its residency.
    for (DataId data = 0; data < graph_.num_data(); ++data) {
      if (protected_on_[data] == gpu) protected_on_[data] = core::kInvalidGpu;
    }
    protect_sole_survivors(gpu);
  }
  const bool adopted = scheduler_.notify_gpu_lost(gpu, orphans);
  publish(InspectorEventKind::kNotifyGpuLost, gpu,
          static_cast<std::uint32_t>(orphans.size()), 0, kNoChannel,
          adopted ? 1 : 0);
  if (const auto divergence = scheduler_.replay_divergence(gpu)) {
    ++fault_metrics_.replay_divergences;
    fault_metrics_.replay_reassigned_tasks += divergence->reassigned_tasks;
    publish(InspectorEventKind::kReplayDivergence, gpu,
            divergence->divergence_index, 0, kNoChannel,
            divergence->reassigned_tasks);
  }
  if (!adopted) {
    for (TaskId task : orphans) reclaimed_.push_back(task);
  }

  // Wake the survivors: redistributed work may be available right now.
  for (GpuId other = 0; other < platform_.num_gpus; ++other) {
    if (!gpus_[other].alive) continue;
    fill_buffer(other);
    pump_hints(other);
    try_start(other);
  }
  if (topology_active_) {
    // A loss on a draining node may have removed its last obstacle.
    maybe_finish_drain(platform_.node_of(gpu));
  }
}

void RuntimeEngine::stop_gpu(GpuId gpu, std::vector<TaskId>& orphans) {
  GpuState& state = gpus_[gpu];
  state.alive = false;
  --alive_gpus_;
  ++fault_metrics_.gpu_losses;
  // Reclaim the interrupted running task (its finish event turns stale and
  // is ignored) and every buffered task, in pop order. In occupancy mode
  // the whole co-running set is interrupted at once.
  if (occupancy_active_) {
    occ_reclaim_running(gpu, orphans);
  } else if (state.running != kInvalidTask) {
    state.busy_us -= std::max(0.0, state.running_until_us - events_.now());
    orphans.push_back(state.running);
    state.running = kInvalidTask;
  }
  for (TaskId task : state.buffer) orphans.push_back(task);
  state.buffer.clear();
  state.assembly_active = false;
  state.scratch_reserved = false;
  state.assembly_pins.clear();
  state.hint_queue.clear();
  state.starved = false;
}

void RuntimeEngine::reclaim_orphan(GpuId gpu, TaskId task) {
  MG_DCHECK(popped_[task]);
  popped_[task] = false;  // the task will legitimately be popped again
  ++fault_metrics_.tasks_reclaimed;
  if (!orphan_lost_at_us_.empty()) orphan_lost_at_us_[task] = events_.now();
  publish(InspectorEventKind::kTaskReclaimed, gpu, task);
}

void RuntimeEngine::unretire_undurable(GpuId gpu) {
  // Completions whose output write-back never drained died with the GPU:
  // their effects were not durable, so they un-retire, revoke the
  // enablements they granted and re-run on survivors — ahead of any
  // orphaned successor, which stays parked until the re-run retires.
  const std::vector<TaskId> undurable = std::move(gpus_[gpu].undurable);
  gpus_[gpu].undurable.clear();
  for (TaskId task : undurable) unretire_task(gpu, task);
}

void RuntimeEngine::apply_capacity_shock(GpuId gpu,
                                         std::uint64_t capacity_bytes) {
  GpuState& state = gpus_[gpu];
  if (!state.alive) return;  // shocks on a dead GPU are moot
  ++fault_metrics_.capacity_shocks;
  // Never below the largest task footprint: every task must still fit.
  const std::uint64_t effective = std::max(capacity_bytes, max_footprint_);
  publish(InspectorEventKind::kCapacityShock, gpu, 0, effective, kNoChannel,
          effective != capacity_bytes ? 1 : 0);
  MG_TRACE("gpu%u capacity shock to %llu bytes at t=%.1fus", gpu,
           static_cast<unsigned long long>(effective), events_.now());
  state.memory->set_capacity(effective);
  fault_metrics_.emergency_evictions += state.memory->emergency_evict();
}

void RuntimeEngine::ensure_topology_state() {
  if (topology_active_) return;
  MG_CHECK_MSG(cluster_active_,
               "topology changes need a multi-node platform");
  topology_active_ = true;
  node_status_.assign(platform_.num_nodes, NodeStatus::kActive);
  active_node_count_ = platform_.num_nodes;
  drain_migrations_left_.assign(platform_.num_nodes, 0);
  drain_start_us_.assign(platform_.num_nodes, 0.0);
  warm_fills_left_.assign(platform_.num_nodes, 0);
}

void RuntimeEngine::begin_node_drain(core::NodeId node) {
  MG_CHECK_MSG(node < platform_.num_nodes, "bad node id");
  ensure_topology_state();
  MG_CHECK_MSG(node_status_[node] == NodeStatus::kActive,
               "only an active node can drain");
  MG_CHECK_MSG(active_node_count_ > 1, "cannot drain the last serving node");
  // A rider would otherwise "start" on the draining node when its leader
  // (already running past the fence) completes there: break every batch
  // first so riders re-dispatch at member granularity.
  unfuse_all();
  node_status_[node] = NodeStatus::kDraining;
  --active_node_count_;
  drain_start_us_[node] = events_.now();

  // Drain fence: pull every popped-but-unstarted task back out of the node's
  // pipelines. Running tasks keep running to completion (the devices are
  // intact — this is planned, nothing re-runs) and their write-backs drain
  // on the node's own channels before it retires.
  std::vector<std::pair<GpuId, TaskId>> pulled;
  std::vector<GpuId> node_gpus;
  const GpuId begin = platform_.node_gpu_begin(node);
  const GpuId end = platform_.node_gpu_end(node);
  for (GpuId gpu = begin; gpu < end; ++gpu) {
    node_gpus.push_back(gpu);
    GpuState& state = gpus_[gpu];
    state.active = false;
    if (!state.alive) continue;  // an earlier GPU loss already emptied it
    if (state.assembly_active) abandon_assembly(gpu, state.buffer.front());
    for (TaskId task : state.buffer) pulled.emplace_back(gpu, task);
    state.buffer.clear();
    state.hint_queue.clear();
    state.starved = false;
    // Parked fetches served the pulled tasks; in-flight ones deliver and sit
    // resident until the retirement wipe.
    state.memory->cancel_stalled();
  }
  publish(InspectorEventKind::kNodeDrainStart, begin, node, 0, kNoChannel,
          static_cast<std::uint32_t>(pulled.size()));
  MG_TRACE("node%u drain fence at t=%.1fus, %zu tasks pulled", node,
           events_.now(), pulled.size());
  std::vector<TaskId> orphans;
  orphans.reserve(pulled.size());
  for (const auto& [gpu, task] : pulled) {
    MG_DCHECK(popped_[task]);
    popped_[task] = false;  // the task will legitimately be served again
    publish(InspectorEventKind::kTaskDrained, gpu, task, 0, kNoChannel, node);
    orphans.push_back(task);
  }
  const bool adopted =
      scheduler_.notify_node_draining(node, node_gpus, orphans);
  if (!adopted) {
    for (TaskId task : orphans) reclaimed_.push_back(task);
  }

  start_data_migrations(node);
  wake_serving_gpus();  // the pulled tasks may be startable right now
  // An idle node with nothing homed on it retires immediately.
  maybe_finish_drain(node);
}

void RuntimeEngine::start_data_migrations(core::NodeId node) {
  const std::vector<core::NodeId> targets = serving_nodes_for_rehome();
  const GpuId port = platform_.node_gpu_begin(node);  // stand-in for the host
  std::size_t next = 0;
  for (DataId data = 0; data < graph_.num_data(); ++data) {
    if (home_override_[data] != node) continue;
    const core::NodeId dst = targets[next++ % targets.size()];
    const std::uint64_t bytes = graph_.data_size(data);
    ++drain_migrations_left_[node];
    publish(InspectorEventKind::kDataMigrateStart, port, data, bytes,
            kNoChannel, dst);
    // The shard leaves over the draining node's PCI bus and network egress —
    // the remote-fetch chain in reverse; landing on the new home re-homes it.
    // With the netfault layer armed the net leg is addressed to the
    // *destination* node's port so link faults on the (node, dst) pair
    // degrade or park it; dormant runs keep the historical self-addressing.
    const GpuId net_port =
        netfault_active_ ? platform_.node_gpu_begin(dst) : port;
    send_over_network(node, port, net_port, data, bytes,
                      TransferPriority::kHigh,
                      [this, node, dst, port, data, bytes] {
                        home_override_[data] = dst;
                        publish(InspectorEventKind::kDataMigrated, port, data,
                                bytes, kNoChannel, dst);
                        MG_DCHECK(drain_migrations_left_[node] > 0);
                        --drain_migrations_left_[node];
                        maybe_finish_drain(node);
                      });
  }
}

std::vector<core::NodeId> RuntimeEngine::serving_nodes_for_rehome() {
  if (home_override_.empty()) {
    home_override_.resize(graph_.num_data());
    for (DataId data = 0; data < graph_.num_data(); ++data) {
      home_override_[data] = platform_.home_node_of(data);
    }
  }
  std::vector<core::NodeId> targets;
  for (core::NodeId other = 0; other < platform_.num_nodes; ++other) {
    if (node_status_[other] == NodeStatus::kActive) targets.push_back(other);
  }
  MG_CHECK_MSG(!targets.empty(), "no serving node left to re-home onto");
  return targets;
}

void RuntimeEngine::wake_serving_gpus() {
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    if (!gpus_[gpu].alive || !gpus_[gpu].active) continue;
    fill_buffer(gpu);
    pump_hints(gpu);
    try_start(gpu);
  }
}

bool RuntimeEngine::serves_outside(core::NodeId node) const {
  for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
    if (platform_.node_of(gpu) != node && gpus_[gpu].alive &&
        gpus_[gpu].active) {
      return true;
    }
  }
  return false;
}

void RuntimeEngine::maybe_finish_drain(core::NodeId node) {
  if (node_status(node) != NodeStatus::kDraining) return;
  if (drain_migrations_left_[node] != 0) return;
  for (GpuId gpu = platform_.node_gpu_begin(node);
       gpu < platform_.node_gpu_end(node); ++gpu) {
    const GpuState& state = gpus_[gpu];
    if (!state.alive) continue;  // already inert
    if (has_running_work(state)) return;
    if (!state.undurable.empty()) return;  // a write-back is still draining
    // Quiescent = no in-flight fetch, no parked fetch, no scratch (which
    // also covers non-dependency write-backs: scratch releases only when
    // the drain completes).
    if (!state.memory->quiescent()) return;
  }
  const NodeState& host = nodes_[node];
  for (DataId data = 0; data < graph_.num_data(); ++data) {
    if (host.net_fetching[data] != 0) return;  // a fill still owes waiters
  }
  finish_node_drain(node);
}

void RuntimeEngine::finish_node_drain(core::NodeId node) {
  NodeState& host = nodes_[node];
  // The node powers off: device residency and the host cache of remote data
  // go away silently (the drain event marks the wipe for inspectors; no
  // eviction fires). The GPUs stay alive so the node can rejoin later.
  for (GpuId gpu = platform_.node_gpu_begin(node);
       gpu < platform_.node_gpu_end(node); ++gpu) {
    if (!gpus_[gpu].alive) continue;
    gpus_[gpu].memory->wipe_resident();
  }
  std::fill(host.cached.begin(), host.cached.end(), std::uint8_t{0});
  host.cached_bytes = 0;
  node_status_[node] = NodeStatus::kInactive;
  const double latency_us = events_.now() - drain_start_us_[node];
  publish(InspectorEventKind::kNodeDrained, platform_.node_gpu_begin(node),
          node, 0, kNoChannel, static_cast<std::uint32_t>(latency_us));
  MG_TRACE("node%u drained at t=%.1fus (%.1fus after the fence)", node,
           events_.now(), latency_us);
}

void RuntimeEngine::begin_node_join(core::NodeId node) {
  MG_CHECK_MSG(node < platform_.num_nodes, "bad node id");
  ensure_topology_state();
  MG_CHECK_MSG(node_status_[node] == NodeStatus::kInactive,
               "only an inactive node can join");
  node_status_[node] = NodeStatus::kWarming;

  // Warm-up: pull the hottest shared data (static consumer count — the same
  // look-ahead signal replication uses) into the joining node's host cache
  // before its GPUs take traffic, so the first tasks placed there do not all
  // stall on cold remote fetches.
  constexpr std::size_t kWarmSetSize = 8;
  std::vector<std::pair<std::uint32_t, DataId>> hot;
  for (DataId data = 0; data < graph_.num_data(); ++data) {
    const auto consumers =
        static_cast<std::uint32_t>(graph_.consumers(data).size());
    if (consumers < 2) continue;             // not shared: fetch on demand
    if (home_node(data) == node) continue;   // home shards are already local
    hot.emplace_back(consumers, data);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const std::uint64_t budget = platform_.host_memory_bytes;
  std::uint64_t planned_bytes = 0;
  std::vector<DataId> warm_set;
  for (const auto& [uses, data] : hot) {
    if (warm_set.size() >= kWarmSetSize) break;
    const std::uint64_t bytes = graph_.data_size(data);
    if (budget > 0 && planned_bytes + bytes > budget) continue;
    planned_bytes += bytes;
    warm_set.push_back(data);
  }
  const std::uint32_t fills = static_cast<std::uint32_t>(warm_set.size());
  publish(InspectorEventKind::kNodeJoinStart, platform_.node_gpu_begin(node),
          node, planned_bytes, kNoChannel, fills);
  MG_TRACE("node%u joining at t=%.1fus, %u warm fills (%llu bytes)", node,
           events_.now(), fills,
           static_cast<unsigned long long>(planned_bytes));
  if (warm_set.empty()) {
    activate_node(node, 0);
    return;
  }
  warm_fills_left_[node] = fills;
  const GpuId port = platform_.node_gpu_begin(node);  // stand-in for the host
  for (DataId data : warm_set) {
    const std::uint64_t bytes = graph_.data_size(data);
    // Same wire shape as a remote fetch — home PCI out, home network egress —
    // but it lands as a warm fill, not a demand-driven host-cache fill.
    send_over_network(home_node(data), port, port, data, bytes,
                      TransferPriority::kHigh, [this, node, data, bytes] {
                        finish_warm_fill(node, data, bytes);
                      });
  }
}

void RuntimeEngine::finish_warm_fill(core::NodeId node, DataId data,
                                     std::uint64_t bytes) {
  MG_DCHECK(node_status_[node] == NodeStatus::kWarming);
  NodeState& host = nodes_[node];
  MG_DCHECK(host.cached[data] == 0);
  host.cached[data] = 1;
  host.cached_bytes += bytes;
  host.last_use[data] = ++host.use_clock;
  publish(InspectorEventKind::kNodeWarmFill, platform_.node_gpu_begin(node),
          data, bytes, kNoChannel, node);
  MG_DCHECK(warm_fills_left_[node] > 0);
  const std::uint32_t fills = warm_fills_left_[node];
  if (--warm_fills_left_[node] == 0) {
    activate_node(node, fills);
  }
}

void RuntimeEngine::activate_node(core::NodeId node, std::uint32_t fills) {
  node_status_[node] = NodeStatus::kActive;
  ++active_node_count_;
  std::vector<GpuId> node_gpus;
  for (GpuId gpu = platform_.node_gpu_begin(node);
       gpu < platform_.node_gpu_end(node); ++gpu) {
    if (!gpus_[gpu].alive) continue;
    gpus_[gpu].active = true;
    node_gpus.push_back(gpu);
  }
  publish(InspectorEventKind::kNodeJoined, platform_.node_gpu_begin(node),
          node, 0, kNoChannel, fills);
  MG_TRACE("node%u joined at t=%.1fus (%zu gpus serving)", node, events_.now(),
           node_gpus.size());
  scheduler_.notify_node_added(node, node_gpus);
  for (GpuId gpu : node_gpus) {
    fill_buffer(gpu);
    pump_hints(gpu);
    try_start(gpu);
  }
}

void RuntimeEngine::fail_node(core::NodeId node) {
  ensure_topology_state();
  if (node_status_[node] == NodeStatus::kLost) return;
  unfuse_all();  // recovery sees member granularity, never fused batches
  // At least one serving GPU must survive outside the node.
  if (!serves_outside(node)) {
    throw EngineError(
        "fault plan lost the last serving node; no active GPU left to finish "
        "the workload");
  }
  if (node_status_[node] == NodeStatus::kActive) --active_node_count_;
  node_status_[node] = NodeStatus::kLost;

  // Tear every GPU of the node down at once, as fail_gpu does one, with a
  // single node-level announcement before the orphans are handed back.
  std::vector<GpuId> node_gpus;
  std::vector<TaskId> orphans;
  std::vector<GpuId> orphan_gpus;  // the GPU each orphan was taken from
  std::uint64_t used_bytes = 0;
  std::uint32_t undurable_count = 0;
  for (GpuId gpu = platform_.node_gpu_begin(node);
       gpu < platform_.node_gpu_end(node); ++gpu) {
    node_gpus.push_back(gpu);
    GpuState& state = gpus_[gpu];
    if (!state.alive) continue;  // an earlier GPU loss already took it
    stop_gpu(gpu, orphans);
    state.active = false;
    orphan_gpus.resize(orphans.size(), gpu);
    used_bytes += state.memory->used_bytes();
    undurable_count += static_cast<std::uint32_t>(state.undurable.size());
    state.memory->deactivate();
    if (platform_.nvlink_enabled) fetch_from_peer_[gpu].assign(graph_.num_data(), 0);
  }
  // The host cache dies with the node. In-flight network fetches towards it
  // stay queued: each chain hop carries a continuation and runs to
  // completion; the late fill lands in a dead cache and its PCI-in fan-out
  // delivers into deactivated managers — all no-ops.
  NodeState& host = nodes_[node];
  std::fill(host.cached.begin(), host.cached.end(), std::uint8_t{0});
  host.cached_bytes = 0;

  const std::uint32_t lost_tasks =
      static_cast<std::uint32_t>(orphans.size()) + undurable_count;
  publish(InspectorEventKind::kNodeLost, platform_.node_gpu_begin(node), node,
          used_bytes, kNoChannel, lost_tasks);
  MG_TRACE("node%u lost at t=%.1fus, %zu orphans", node, events_.now(),
           orphans.size());

  for (std::size_t i = 0; i < orphans.size(); ++i) {
    reclaim_orphan(orphan_gpus[i], orphans[i]);
  }
  for (GpuId gpu : node_gpus) unretire_undurable(gpu);
  if (replication_active_) {
    for (DataId data = 0; data < graph_.num_data(); ++data) {
      if (protected_on_[data] != core::kInvalidGpu &&
          platform_.node_of(protected_on_[data]) == node) {
        protected_on_[data] = core::kInvalidGpu;
      }
    }
    protect_sole_survivors(platform_.node_gpu_begin(node));
  }

  // Shards homed on the lost node re-home instantly: host memory is modeled
  // as durably backed (the same cluster store drains and joins ride), so
  // only device-side progress is lost. No migration events — no bytes move.
  const std::vector<core::NodeId> targets = serving_nodes_for_rehome();
  std::size_t next = 0;
  for (DataId data = 0; data < graph_.num_data(); ++data) {
    if (home_override_[data] == node) {
      home_override_[data] = targets[next++ % targets.size()];
    }
  }

  // A timed fetch sourced at the lost node may sit parked behind a
  // partition that never heals (that is exactly what the detector's
  // escalation to this node loss concluded): re-issue each one from the
  // shard's new home so its waiters are not stranded. When the re-home
  // landed on the waiting node itself the re-issue rides the node's own
  // egress — one artificial hop, but the recovery stays on the audited
  // fetch path (delivery, dedup gate, byte conservation all unchanged).
  if (netfault_active_ && config_.fetch_timeout_factor > 0.0) {
    for (core::NodeId dest = 0; dest < platform_.num_nodes; ++dest) {
      if (dest == node || node_status_[dest] == NodeStatus::kLost) continue;
      for (DataId data = 0; data < graph_.num_data(); ++data) {
        if (nodes_[dest].net_fetching[data] == 0) continue;
        NetFetchState& fetch = net_fetch_[dest][data];
        if (fetch.source != node) continue;
        ++fetch.generation;  // retire the stranded issue and its deadline
        fetch.source = home_node(data);
        const std::uint64_t bytes = graph_.data_size(data);
        const std::vector<NodeWaiter>& waiters = nodes_[dest].waiters[data];
        const GpuId dst = waiters.empty() ? platform_.node_gpu_begin(dest)
                                          : waiters.front().gpu;
        issue_net_fetch(dest, fetch.source, dst, data, bytes);
        arm_fetch_deadline(dest, data, bytes, fetch_deadline_us(bytes));
      }
    }
  }

  const bool adopted = scheduler_.notify_node_lost(node, node_gpus, orphans);
  if (!adopted) {
    for (TaskId task : orphans) reclaimed_.push_back(task);
  }
  wake_serving_gpus();
}

// ---- Network faults: link windows, hedged fetches, suspicion ---------------

void RuntimeEngine::arm_netfaults() {
  netfault_active_ = true;
  node_suspected_.assign(platform_.num_nodes, 0);
  node_timeout_count_.assign(platform_.num_nodes, 0);
  suspicion_epoch_.assign(platform_.num_nodes, 0);
  net_fetch_.assign(platform_.num_nodes,
                    std::vector<NetFetchState>(graph_.num_data()));
  if (injector_ != nullptr) {
    for (const FaultPlan::LinkFault& fault : injector_->plan().link_faults) {
      LinkWindow window;
      window.src = fault.src;
      window.dst = fault.dst;
      window.start_us = fault.start_us;
      window.end_us = fault.end_us;
      window.factor = fault.bandwidth_factor;
      window.straggler_us = fault.straggler_us;
      window.partition = fault.partition;
      link_windows_.push_back(window);
    }
  }
  for (std::size_t i = 0; i < link_windows_.size(); ++i) {
    const LinkWindow& window = link_windows_[i];
    events_.schedule_at(window.start_us,
                        [this, i] { apply_link_boundary(i, /*start=*/true); });
    if (std::isfinite(window.end_us)) {
      events_.schedule_at(window.end_us, [this, i] {
        apply_link_boundary(i, /*start=*/false);
      });
    }
  }
  // Every node's network egress gets a cost hook (degradation stretches the
  // wire time, stragglers add latency) and a start filter that parks
  // requests whose link is partitioned until the window closes.
  for (core::NodeId node = 0; node < platform_.num_nodes; ++node) {
    nodes_[node].net->set_cost_hook(
        [this, node](GpuId dst, std::uint64_t bytes, double base_us) {
          (void)bytes;
          const LinkWindow* window =
              active_link_fault(node, platform_.node_of(dst));
          if (window == nullptr || window->partition) return base_us;
          return base_us * window->factor + window->straggler_us;
        });
    nodes_[node].net->set_start_filter(
        [this, node](GpuId dst, DataId data, std::uint64_t bytes,
                     Bus::OnComplete& on_complete) {
          if (!link_partitioned(node, platform_.node_of(dst))) return false;
          parked_net_.push_back(
              {node, dst, data, bytes, std::move(on_complete)});
          return true;
        });
  }
}

const RuntimeEngine::LinkWindow* RuntimeEngine::active_link_fault(
    core::NodeId a, core::NodeId b) const {
  if (a == b) return nullptr;
  for (const LinkWindow& window : link_windows_) {
    if (!window.active) continue;
    if ((window.src == a && window.dst == b) ||
        (window.src == b && window.dst == a)) {
      return &window;
    }
  }
  return nullptr;
}

void RuntimeEngine::apply_link_boundary(std::size_t index, bool start) {
  LinkWindow& window = link_windows_[index];
  if (start) {
    window.active = true;
    if (window.partition) {
      const std::uint64_t heal_us =
          std::isfinite(window.end_us)
              ? static_cast<std::uint64_t>(window.end_us)
              : 0;
      publish(InspectorEventKind::kLinkPartitioned, window.src, window.dst,
              heal_us);
    } else {
      publish(InspectorEventKind::kLinkDegraded, window.src, window.dst,
              static_cast<std::uint64_t>(window.factor * 1e6), kNoChannel,
              static_cast<std::uint32_t>(window.straggler_us));
    }
    MG_TRACE("link node%u-node%u %s at t=%.1fus", window.src, window.dst,
             window.partition ? "partitioned" : "degraded", events_.now());
    return;
  }
  window.active = false;
  publish(InspectorEventKind::kLinkRestored, window.src, window.dst, 0,
          kNoChannel, window.partition ? 1 : 0);
  MG_TRACE("link node%u-node%u restored at t=%.1fus", window.src, window.dst,
           events_.now());
  if (!window.partition) return;
  // Re-submit the requests the partition parked on this pair. The egress may
  // be partitioned against a *different* node by a still-open window — the
  // start filter parks such a request right back.
  std::vector<ParkedNetRequest> resumed;
  for (auto it = parked_net_.begin(); it != parked_net_.end();) {
    const core::NodeId other = platform_.node_of(it->dst);
    if ((it->src_node == window.src && other == window.dst) ||
        (it->src_node == window.dst && other == window.src)) {
      resumed.push_back(std::move(*it));
      it = parked_net_.erase(it);
    } else {
      ++it;
    }
  }
  for (ParkedNetRequest& request : resumed) {
    nodes_[request.src_node].net->request(request.dst, request.data,
                                          request.bytes,
                                          std::move(request.on_complete));
  }
}

void RuntimeEngine::issue_net_fetch(core::NodeId dest, core::NodeId source,
                                    GpuId dst, DataId data,
                                    std::uint64_t bytes,
                                    TransferPriority priority) {
  // The same two-leg chain as an untimed fetch, but the delivery routes
  // through the dedup gate so a losing duplicate cannot double-fill.
  send_over_network(source, dst, dst, data, bytes, priority,
                    [this, dest, source, dst, data, bytes] {
                      net_fetch_delivered(dest, source, dst, data, bytes);
                    });
}

void RuntimeEngine::net_fetch_delivered(core::NodeId dest, core::NodeId source,
                                        GpuId dst, DataId data,
                                        std::uint64_t bytes) {
  // Any delivery that crossed the network from `source` is proof of life.
  if (node_suspected_[source] != 0) clear_suspicion(source);
  if (nodes_[dest].net_fetching[data] == 0) {
    // A hedge (or the original issue) already served this fetch.
    publish(InspectorEventKind::kHedgeWasted, platform_.node_gpu_begin(dest),
            data, bytes, kNoChannel, dest);
    return;
  }
  ++net_fetch_[dest][data].generation;  // retire any pending deadline
  host_cache_fill(dest, dst, data, bytes);
}

double RuntimeEngine::fetch_deadline_us(std::uint64_t bytes) const {
  return config_.fetch_timeout_factor *
         platform_.internode_transfer_time_us(bytes);
}

void RuntimeEngine::arm_fetch_deadline(core::NodeId dest, DataId data,
                                       std::uint64_t bytes, double delay_us) {
  const std::uint32_t generation = net_fetch_[dest][data].generation;
  events_.schedule_after(delay_us, [this, dest, data, bytes, generation] {
    on_fetch_deadline(dest, data, bytes, generation);
  });
}

void RuntimeEngine::on_fetch_deadline(core::NodeId dest, DataId data,
                                      std::uint64_t bytes,
                                      std::uint32_t generation) {
  NetFetchState& fetch = net_fetch_[dest][data];
  if (fetch.generation != generation) return;  // delivered or re-issued
  if (nodes_[dest].net_fetching[data] == 0) return;  // already served
  if (node_status(dest) == NodeStatus::kLost) {
    return;  // the waiters died with their node; nothing left to serve
  }
  fetch.timed_out = 1;
  const core::NodeId source = fetch.source;
  publish(InspectorEventKind::kFetchTimeout, platform_.node_gpu_begin(dest),
          data, bytes, kNoChannel, source);
  MG_TRACE("fetch of data%u into node%u from node%u timed out at t=%.1fus",
           data, dest, source, events_.now());
  suspect_node(source);
  if (fetch.hedges < config_.max_fetch_hedges) {
    const core::NodeId alternate = pick_hedge_source(dest, data, source);
    if (alternate != kNoNode) {
      ++fetch.hedges;
      ++fetch.generation;  // retire the deadline of the losing issue
      fetch.source = alternate;
      publish(InspectorEventKind::kFetchHedged, platform_.node_gpu_begin(dest),
              data, bytes, kNoChannel, alternate);
      const std::vector<NodeWaiter>& waiters = nodes_[dest].waiters[data];
      const GpuId dst = waiters.empty() ? platform_.node_gpu_begin(dest)
                                        : waiters.front().gpu;
      issue_net_fetch(dest, alternate, dst, data, bytes);
      arm_fetch_deadline(dest, data, bytes, fetch_deadline_us(bytes));
      return;
    }
  }
  // Hedge cap hit, or no holder reachable right now (every copy behind a
  // partition): keep the deadline armed with the transfer-retry exponential
  // backoff. A heal re-submits the parked legs, an escalation re-homes the
  // shard — either way a later deadline finds a way forward.
  const double exponent =
      static_cast<double>(std::min<std::uint32_t>(fetch.retries, 30));
  ++fetch.retries;
  const double backoff =
      std::min(kRetryBackoffCapUs, kRetryBackoffBaseUs * std::exp2(exponent));
  arm_fetch_deadline(dest, data, bytes, fetch_deadline_us(bytes) + backoff);
}

core::NodeId RuntimeEngine::pick_hedge_source(core::NodeId dest, DataId data,
                                              core::NodeId prefer_not) const {
  // Deterministic scan: the first unsuspected holder with a healthy link
  // wins; a suspected holder is kept as last resort (lowest id on ties).
  core::NodeId fallback = kNoNode;
  for (core::NodeId node = 0; node < platform_.num_nodes; ++node) {
    if (node == dest || node == prefer_not) continue;
    if (node_status(node) != NodeStatus::kActive) continue;
    if (home_node(data) != node && nodes_[node].cached[data] == 0) continue;
    if (link_partitioned(node, dest)) continue;
    if (node_suspected_[node] != 0) {
      if (fallback == kNoNode) fallback = node;
      continue;
    }
    return node;
  }
  // The shard's (possibly re-homed) home itself, as the very last resort —
  // a healed link makes re-fetching from home viable again.
  if (fallback == kNoNode && prefer_not != home_node(data) &&
      home_node(data) != dest && !link_partitioned(home_node(data), dest) &&
      node_status(home_node(data)) == NodeStatus::kActive) {
    fallback = home_node(data);
  }
  return fallback;
}

void RuntimeEngine::suspect_node(core::NodeId node) {
  ++node_timeout_count_[node];
  if (node_suspected_[node] != 0) return;
  if (node_status(node) == NodeStatus::kLost) return;
  node_suspected_[node] = 1;
  publish(InspectorEventKind::kNodeSuspected, platform_.node_gpu_begin(node),
          node, 0, kNoChannel, node_timeout_count_[node]);
  MG_TRACE("node%u suspected at t=%.1fus (%u timeouts)", node, events_.now(),
           node_timeout_count_[node]);
  scheduler_.notify_node_suspected(node);
  if (config_.suspicion_confirm_window_us > 0.0) {
    const std::uint32_t epoch = suspicion_epoch_[node];
    events_.schedule_after(
        config_.suspicion_confirm_window_us,
        [this, node, epoch] { escalate_suspicion(node, epoch); });
  }
}

void RuntimeEngine::clear_suspicion(core::NodeId node) {
  if (node_suspected_[node] == 0) return;
  if (node_status(node) == NodeStatus::kLost) return;
  node_suspected_[node] = 0;
  ++suspicion_epoch_[node];  // a pending confirm window must not escalate
  publish(InspectorEventKind::kNodeSuspicionCleared,
          platform_.node_gpu_begin(node), node);
  MG_TRACE("node%u suspicion cleared at t=%.1fus", node, events_.now());
  scheduler_.notify_node_suspicion_cleared(node);
}

void RuntimeEngine::escalate_suspicion(core::NodeId node, std::uint32_t epoch) {
  if (suspicion_epoch_[node] != epoch || node_suspected_[node] == 0) return;
  if (node_status(node) == NodeStatus::kLost) return;
  // Never escalate the last serving capacity away — fail_node would throw.
  // The node stays suspected; a heal can still clear it.
  if (!serves_outside(node)) return;
  publish(InspectorEventKind::kNodeSuspicionEscalated,
          platform_.node_gpu_begin(node), node, 0, kNoChannel,
          static_cast<std::uint32_t>(config_.suspicion_confirm_window_us));
  MG_TRACE("node%u suspicion escalated to node loss at t=%.1fus", node,
           events_.now());
  fail_node(node);
}

std::uint64_t RuntimeEngine::checkpoint_payload_bytes(TaskId task) const {
  // The snapshot drains the task's accumulated output state; inputs are
  // re-fetchable from the host and are not part of it. Tasks without a
  // declared output snapshot a progress descriptor only — the drain still
  // pays the bus latency.
  return graph_.task_output_bytes(task);
}

double RuntimeEngine::checkpoint_cost_us(TaskId task) const {
  // Bus time one snapshot drain occupies on the write-back channel.
  const double bytes = static_cast<double>(checkpoint_payload_bytes(task));
  return platform_.bus_latency_us +
         bytes / platform_.bus_bandwidth_bytes_per_s * 1e6;
}

void RuntimeEngine::initiate_checkpoint(GpuId gpu, TaskId task,
                                        double fraction) {
  GpuState& state = gpus_[gpu];
  // Stale boundary: the task was interrupted (GPU loss) before reaching
  // this snapshot point.
  if (!state.alive || state.running != task) return;
  writeback_bus_for(gpu)->request(gpu, task, checkpoint_payload_bytes(task),
                                  [this, gpu, task, fraction] {
                                    commit_checkpoint(gpu, task, fraction);
                                  });
}

void RuntimeEngine::commit_checkpoint(GpuId gpu, TaskId task, double fraction) {
  GpuState& state = gpus_[gpu];
  // The GPU died — or the task already finished — while the snapshot was
  // draining: nothing durable to record.
  if (!state.alive || state.running != task) return;
  MG_DCHECK(fraction > checkpoint_progress_[task] && fraction < 1.0);
  checkpoint_progress_[task] = fraction;
  const std::uint64_t payload = checkpoint_payload_bytes(task);
  ++fault_metrics_.checkpoints_taken;
  fault_metrics_.checkpoint_overhead_us += checkpoint_cost_us(task);
  fault_metrics_.checkpoint_payload_bytes += payload;
  publish(InspectorEventKind::kCheckpoint, gpu, task, payload, kNoChannel,
          static_cast<std::uint32_t>(fraction * 1e6));
}

void RuntimeEngine::maybe_replicate() {
  if (alive_gpus_ < 2) return;
  // Hottest data (most remaining planned uses) living on exactly one alive
  // GPU get a second copy in free memory of another device. A couple per
  // pump keeps the scan amortized across completion events.
  constexpr std::uint32_t kMaxPerPump = 2;
  std::uint32_t created = 0;
  // Candidates sorted by hotness (descending), then data id for determinism.
  std::vector<std::pair<std::uint32_t, DataId>> candidates;
  for (DataId data = 0; data < graph_.num_data(); ++data) {
    if (remaining_uses_[data] < 2) continue;
    std::uint32_t holders = 0;
    for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
      if (gpus_[gpu].alive && gpus_[gpu].memory->is_present_or_fetching(data)) {
        ++holders;
        if (holders > 1) break;
      }
    }
    if (holders == 1) candidates.emplace_back(remaining_uses_[data], data);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (const auto& [uses, data] : candidates) {
    // Destination: the alive non-holder with the most free memory (lowest
    // id on ties).
    GpuId dst = core::kInvalidGpu;
    std::uint64_t best_free = 0;
    for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
      GpuState& state = gpus_[gpu];
      if (!state.alive || state.memory->is_present_or_fetching(data)) continue;
      const std::uint64_t capacity = state.memory->capacity_bytes();
      const std::uint64_t used = state.memory->used_bytes();
      const std::uint64_t free = capacity > used ? capacity - used : 0;
      if (free < graph_.data_size(data)) continue;
      if (dst == core::kInvalidGpu || free > best_free) {
        dst = gpu;
        best_free = free;
      }
    }
    if (dst == core::kInvalidGpu) continue;
    if (!gpus_[dst].memory->fetch_replica(data)) continue;
    ++fault_metrics_.replicas_created;
    fault_metrics_.replica_bytes += graph_.data_size(data);
    publish(InspectorEventKind::kReplicaCreate, dst, data,
            graph_.data_size(data), kNoChannel, uses);
    if (++created >= kMaxPerPump) break;
  }
}

void RuntimeEngine::protect_sole_survivors(GpuId dead_gpu) {
  (void)dead_gpu;
  for (DataId data = 0; data < graph_.num_data(); ++data) {
    if (remaining_uses_[data] == 0) continue;
    if (protected_on_[data] != core::kInvalidGpu) continue;
    GpuId holder = core::kInvalidGpu;
    std::uint32_t holders = 0;
    for (GpuId gpu = 0; gpu < platform_.num_gpus; ++gpu) {
      if (gpus_[gpu].alive && gpus_[gpu].memory->is_present(data)) {
        holder = gpu;
        ++holders;
      }
    }
    // Only a proactive replica that became the last copy gets promoted:
    // regular residency stays governed by the eviction policy (the data can
    // be re-fetched from the host at the usual price).
    if (holders != 1 || !gpus_[holder].memory->is_replica(data)) continue;
    gpus_[holder].memory->protect(data);
    protected_on_[data] = holder;
    ++fault_metrics_.replicas_protected;
    publish(InspectorEventKind::kReplicaProtect, holder, data,
            graph_.data_size(data));
  }
}

void RuntimeEngine::release_protection(DataId data, bool uses_exhausted) {
  const GpuId holder = protected_on_[data];
  MG_DCHECK(holder != core::kInvalidGpu);
  protected_on_[data] = core::kInvalidGpu;
  if (!gpus_[holder].alive) return;
  // Publish before unprotect: dropping the pin can re-enter eviction (a
  // stalled fetch retries and takes the freshly unprotected data as its
  // victim), and observers must see the release ahead of that evict.
  publish(InspectorEventKind::kReplicaRelease, holder, data,
          graph_.data_size(data), kNoChannel, uses_exhausted ? 1 : 0);
  gpus_[holder].memory->unprotect(data);
}

}  // namespace mg::sim
