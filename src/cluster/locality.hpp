// Locality-aware dynamic cluster scheduling — the DARTS-style alternative
// to the static hierarchical partition.
//
// One global pool of submitted tasks; each pop scores the candidates by the
// *fetch cost from the asking GPU's position in the cluster*: an input
// already resident (or in flight) costs nothing, an input the GPU's node can
// serve locally — data homed there, or previously pulled into its host
// cache — costs one PCI transfer, and an input that would have to cross the
// network costs PCI-out + network + PCI-in
// (Platform::internode_transfer_time_us). This extends DARTS's
// data-priority idea ("run tasks whose data is close") with node-distance
// costs; ties break toward the task with the most input bytes already on
// the GPU (the reuse the policy exists to exploit), then submission order.
//
// The scheduler is fully dynamic, so it also drives streamed (serving)
// runs: jobs enter the pool as they arrive and land on whichever node can
// fetch their data cheapest — multi-node job placement falls out of the
// same cost model. On a single-node platform every candidate is "local"
// and the policy degrades to greedy min-missing-bytes over the pool.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"

namespace mg::cluster {

struct LocalityOptions {
  /// Cap on candidates scored per pop (front of the pool first; 0 =
  /// unbounded). The paper's DARTS uses the same device to bound scheduling
  /// time on huge pools.
  std::size_t scan_limit = 0;
};

class LocalityScheduler final : public core::Scheduler {
 public:
  explicit LocalityScheduler(LocalityOptions options = {});

  [[nodiscard]] std::string_view name() const override { return "locality"; }

  void prepare(const core::TaskGraph& graph, const core::Platform& platform,
               std::uint64_t seed) override;

  [[nodiscard]] core::TaskId pop_task(core::GpuId gpu,
                                      const core::MemoryView& memory) override;

  /// A non-empty pool always yields a task, and an empty one yields nothing
  /// without touching any state.
  [[nodiscard]] bool may_pop(core::GpuId gpu) const override {
    (void)gpu;
    return !pool_.empty();
  }

  [[nodiscard]] bool begin_streaming() override {
    streaming_ = true;
    return true;
  }
  void notify_job_arrived(std::uint32_t job,
                          std::span<const core::TaskId> tasks) override;

  /// Dependencies: the pool holds exactly the ready frontier — tasks enter
  /// at load (no predecessors), at job arrival (streamed, already enabled)
  /// or when their last predecessor retires.
  [[nodiscard]] bool begin_dependencies() override {
    deps_ = true;
    return true;
  }
  void notify_task_retired(
      core::TaskId task,
      std::span<const core::TaskId> enabled_successors) override;

  void notify_data_loaded(core::GpuId gpu, core::DataId data) override;

  /// Planned drain (or startup announcement of an initially-inactive node):
  /// the pulled orphans re-enter the pool at the front — they were next to
  /// run — and the node's locality row is forgotten: its host cache is wiped
  /// at retirement and its home shards migrate to survivors, so the cached
  /// knowledge would only mislead the cost model. notify_node_added keeps
  /// the default no-op — a joining node starts with an empty row and
  /// relearns through notify_data_loaded / warm-fills landing on its GPUs.
  [[nodiscard]] bool notify_node_draining(
      core::NodeId node, std::span<const core::GpuId> gpus,
      std::span<const core::TaskId> orphaned) override;

  /// Unplanned loss: same pool/row treatment as a drain, in one pass (no
  /// per-GPU forwarding).
  [[nodiscard]] bool notify_node_lost(
      core::NodeId node, std::span<const core::GpuId> gpus,
      std::span<const core::TaskId> orphaned) override;

  /// Suspicion (network faults): inputs whose every known holder is
  /// suspected get their internode cost weighted up by a fixed factor, so
  /// pops steer towards tasks whose data healthy nodes can serve — the
  /// locality analogue of "raise the suspected node's distance". Cleared
  /// suspicion restores the plain cost.
  void notify_node_suspected(core::NodeId node) override;
  void notify_node_suspicion_cleared(core::NodeId node) override;

 private:
  /// Clears the node's node_local_ row (stale after a drain or loss).
  void forget_node(core::NodeId node);

  /// Predicted time to fetch the missing inputs of `task` onto `gpu`, plus
  /// (via `present_bytes`) how much is already there.
  [[nodiscard]] double fetch_cost_us(core::GpuId gpu, core::TaskId task,
                                     const core::MemoryView& memory,
                                     std::uint64_t* present_bytes) const;

  /// True when some unsuspected node can serve `data` locally.
  [[nodiscard]] bool served_by_healthy_node(core::DataId data) const;

  LocalityOptions options_;
  bool streaming_ = false;
  bool deps_ = false;
  const core::TaskGraph* graph_ = nullptr;
  core::Platform platform_;
  std::vector<core::TaskId> pool_;  ///< submitted, unpopped (arrival order)
  /// node_local_[node * num_data + data] != 0 when the node can serve the
  /// data without touching the network: homed there, or observed landing on
  /// one of its GPUs (so it sits in the node's host cache). Single row on a
  /// single-node platform.
  std::vector<std::uint8_t> node_local_;
  /// Suspicion state (network faults); armed by the first
  /// notify_node_suspected so unsuspicious runs pay nothing extra.
  bool suspicion_armed_ = false;
  std::vector<std::uint8_t> node_suspected_;
};

}  // namespace mg::cluster
