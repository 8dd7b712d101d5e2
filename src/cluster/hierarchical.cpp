#include "cluster/hierarchical.hpp"

#include <algorithm>
#include <utility>

#include "core/task_graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/check.hpp"

namespace mg::cluster {

namespace {

/// MemoryView a node's inner scheduler sees: node-local data ids, backed by
/// the physical GPU's global view.
class TranslatingMemoryView final : public core::MemoryView {
 public:
  TranslatingMemoryView(const core::MemoryView& base,
                        const std::vector<core::DataId>& local_to_global)
      : base_(base), local_to_global_(local_to_global) {}

  [[nodiscard]] bool is_present(core::DataId data) const override {
    return base_.is_present(local_to_global_[data]);
  }
  [[nodiscard]] bool is_present_or_fetching(core::DataId data) const override {
    return base_.is_present_or_fetching(local_to_global_[data]);
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return base_.capacity_bytes();
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return base_.used_bytes();
  }

 private:
  const core::MemoryView& base_;
  const std::vector<core::DataId>& local_to_global_;
};

}  // namespace

/// EvictionPolicy adapter around one inner per-GPU policy: global GPU and
/// data ids on the engine side, node-local ids on the inner side. Data a
/// stolen task dragged onto the node (absent from the node's sub-graph, so
/// untranslatable) is evicted first — it is not part of the inner policy's
/// plan.
class HierarchicalEviction final : public core::EvictionPolicy {
 public:
  HierarchicalEviction(core::EvictionPolicy& inner, core::GpuId gpu_begin,
                       const std::vector<core::DataId>& global_to_local,
                       const std::vector<core::DataId>& local_to_global)
      : inner_(inner),
        gpu_begin_(gpu_begin),
        global_to_local_(global_to_local),
        local_to_global_(local_to_global) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }

  void on_load(core::GpuId gpu, core::DataId data) override {
    if (const core::DataId local = global_to_local_[data];
        local != core::kInvalidData) {
      inner_.on_load(gpu - gpu_begin_, local);
    }
  }
  void on_use(core::GpuId gpu, core::DataId data) override {
    if (const core::DataId local = global_to_local_[data];
        local != core::kInvalidData) {
      inner_.on_use(gpu - gpu_begin_, local);
    }
  }
  void on_evict(core::GpuId gpu, core::DataId data) override {
    if (const core::DataId local = global_to_local_[data];
        local != core::kInvalidData) {
      inner_.on_evict(gpu - gpu_begin_, local);
    }
  }

  [[nodiscard]] core::DataId choose_victim(
      core::GpuId gpu, std::span<const core::DataId> candidates) override {
    local_candidates_.clear();
    for (core::DataId data : candidates) {
      const core::DataId local = global_to_local_[data];
      if (local == core::kInvalidData) return data;  // foreign data first
      local_candidates_.push_back(local);
    }
    const core::DataId local =
        inner_.choose_victim(gpu - gpu_begin_, local_candidates_);
    return local == core::kInvalidData ? core::kInvalidData
                                       : local_to_global_[local];
  }

 private:
  core::EvictionPolicy& inner_;
  core::GpuId gpu_begin_;
  const std::vector<core::DataId>& global_to_local_;
  const std::vector<core::DataId>& local_to_global_;
  std::vector<core::DataId> local_candidates_;
};

struct HierarchicalScheduler::Node {
  std::unique_ptr<core::Scheduler> inner;
  core::TaskGraph graph;     ///< node-local sub-graph
  core::Platform platform;   ///< single-node view of the GPU block
  core::GpuId gpu_begin = 0;
  core::GpuId gpu_end = 0;
  std::vector<core::TaskId> local_to_global_task;
  std::vector<core::DataId> local_to_global_data;
  std::vector<core::DataId> global_to_local_data;  ///< kInvalidData = absent
  /// Eviction adapters, one per local GPU whose inner policy is custom.
  std::vector<std::unique_ptr<HierarchicalEviction>> evictors;
  std::size_t unpopped = 0;  ///< local tasks not yet handed out
};

HierarchicalScheduler::HierarchicalScheduler(InnerSchedulerFactory factory,
                                             HierarchicalOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
  MG_CHECK_MSG(factory_ != nullptr,
               "HierarchicalScheduler needs an inner-scheduler factory");
  const std::unique_ptr<core::Scheduler> probe = factory_();
  name_ = "hier(" + std::string(probe->name()) + ")";
}

HierarchicalScheduler::~HierarchicalScheduler() = default;

void HierarchicalScheduler::prepare(const core::TaskGraph& graph,
                                    const core::Platform& platform,
                                    std::uint64_t seed) {
  graph_ = &graph;
  platform_ = platform;
  nodes_.clear();
  issued_.assign(graph.num_tasks(), Issued{});
  steals_ = 0;
  deferred_.clear();
  if (deps_) {
    enabled_.assign(graph.num_tasks(), 0);
    for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
      if (graph.num_predecessors(task) == 0) enabled_[task] = 1;
    }
  } else {
    enabled_.clear();
  }

  const std::uint32_t num_nodes =
      platform.is_cluster() ? platform.num_nodes : 1;
  identity_ = num_nodes == 1;
  node_suspected_.assign(num_nodes, 0);

  // Single node: no partition, no translation — delegate everything.
  if (identity_) {
    task_node_.clear();
    auto node = std::make_unique<Node>();
    node->inner = factory_();
    node->gpu_begin = 0;
    node->gpu_end = platform.num_gpus;
    if (deps_) {
      MG_CHECK_MSG(node->inner->begin_dependencies(),
                   "inner scheduler declined dependency gating");
    }
    node->inner->prepare(graph, platform, seed);
    nodes_.push_back(std::move(node));
    return;
  }

  // Inter-node split: K-way partition of the data-sharing hypergraph, with
  // per-node target shares proportional to GPU counts (node blocks may be
  // uneven when num_gpus % num_nodes != 0).
  hyper::PartitionerConfig config = options_.partition;
  config.num_parts = num_nodes;
  config.seed = seed;
  config.target_share.clear();
  for (core::NodeId node = 0; node < num_nodes; ++node) {
    config.target_share.push_back(static_cast<double>(
        platform.node_gpu_end(node) - platform.node_gpu_begin(node)));
  }
  const hyper::Hypergraph hypergraph = hyper::hypergraph_from_task_graph(graph);
  task_node_ = hyper::partition_hypergraph(hypergraph, config);

  for (core::NodeId node_id = 0; node_id < num_nodes; ++node_id) {
    auto node = std::make_unique<Node>();
    node->gpu_begin = platform.node_gpu_begin(node_id);
    node->gpu_end = platform.node_gpu_end(node_id);
    node->global_to_local_data.assign(graph.num_data(), core::kInvalidData);

    core::TaskGraphBuilder builder;
    std::vector<core::DataId> local_inputs;
    for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
      if (task_node_[task] != node_id) continue;
      local_inputs.clear();
      for (core::DataId data : graph.inputs(task)) {
        core::DataId& local = node->global_to_local_data[data];
        if (local == core::kInvalidData) {
          local = builder.add_data(graph.data_size(data));
          node->local_to_global_data.push_back(data);
        }
        local_inputs.push_back(local);
      }
      const core::TaskId local_task =
          builder.add_task(graph.task_flops(task), local_inputs);
      if (graph.task_output_bytes(task) > 0) {
        builder.set_task_output(local_task, graph.task_output_bytes(task));
      }
      node->local_to_global_task.push_back(task);
    }
    node->graph = std::move(builder).build();
    node->unpopped = node->local_to_global_task.size();

    // The inner scheduler sees a plain single-node machine: its node's GPU
    // block, full PCI bus, no network.
    node->platform = platform;
    node->platform.num_nodes = 1;
    node->platform.num_gpus = node->gpu_end - node->gpu_begin;

    node->inner = factory_();
    node->inner->prepare(node->graph, node->platform, seed + node_id);

    node->evictors.resize(node->platform.num_gpus);
    for (core::GpuId local = 0; local < node->platform.num_gpus; ++local) {
      if (core::EvictionPolicy* policy = node->inner->eviction_policy(local)) {
        node->evictors[local] = std::make_unique<HierarchicalEviction>(
            *policy, node->gpu_begin, node->global_to_local_data,
            node->local_to_global_data);
      }
    }
    nodes_.push_back(std::move(node));
  }
}

core::TaskId HierarchicalScheduler::pop_task(core::GpuId gpu,
                                             const core::MemoryView& memory) {
  if (identity_) return nodes_[0]->inner->pop_task(gpu, memory);

  if (deps_) {
    // Serve a deferred task whose (remote) predecessors have since retired.
    for (auto it = deferred_.begin(); it != deferred_.end(); ++it) {
      if (enabled_[*it] != 0) {
        const core::TaskId task = *it;
        deferred_.erase(it);
        return task;
      }
    }
  }

  const std::uint32_t node_id = platform_.node_of(gpu);
  Node& node = *nodes_[node_id];
  const TranslatingMemoryView view(memory, node.local_to_global_data);
  for (;;) {
    const core::TaskId local = node.inner->pop_task(gpu - node.gpu_begin, view);
    if (local == core::kInvalidTask) break;
    --node.unpopped;
    const core::TaskId task = node.local_to_global_task[local];
    issued_[task] = Issued{node_id, gpu - node.gpu_begin};
    if (!deps_ || enabled_[task] != 0) return task;
    // Popped before its last predecessor retired: hold it wrapper-side.
    deferred_.push_back(task);
  }
  if (options_.steal && node.unpopped == 0) return steal_for(gpu, memory);
  return core::kInvalidTask;
}

core::TaskId HierarchicalScheduler::steal_for(core::GpuId gpu,
                                              const core::MemoryView& memory) {
  // Victim: the node with the most unpopped work left.
  std::uint32_t victim_id = ~0u;
  std::size_t most = 0;
  for (std::uint32_t candidate = 0; candidate < nodes_.size(); ++candidate) {
    if (candidate == platform_.node_of(gpu)) continue;
    if (node_suspected_[candidate] != 0) continue;
    if (nodes_[candidate]->unpopped > most) {
      most = nodes_[candidate]->unpopped;
      victim_id = candidate;
    }
  }
  if (victim_id == ~0u) return core::kInvalidTask;

  Node& victim = *nodes_[victim_id];
  // Pop on behalf of a victim-local GPU (spread deterministically by thief
  // id): the inner scheduler keeps believing its own GPU ran the task, and
  // completion is routed back the same way via issued_.
  const core::GpuId proxy =
      gpu % (victim.gpu_end - victim.gpu_begin);
  const TranslatingMemoryView view(memory, victim.local_to_global_data);
  for (;;) {
    const core::TaskId local = victim.inner->pop_task(proxy, view);
    if (local == core::kInvalidTask) return core::kInvalidTask;
    --victim.unpopped;
    const core::TaskId task = victim.local_to_global_task[local];
    issued_[task] = Issued{victim_id, proxy};
    if (!deps_ || enabled_[task] != 0) {
      ++steals_;
      return task;
    }
    deferred_.push_back(task);  // blocked loot: held like a local pop
  }
}

void HierarchicalScheduler::notify_task_retired(
    core::TaskId task, std::span<const core::TaskId> enabled_successors) {
  if (identity_) {
    nodes_[0]->inner->notify_task_retired(task, enabled_successors);
    return;
  }
  for (core::TaskId succ : enabled_successors) enabled_[succ] = 1;
}

void HierarchicalScheduler::notify_task_complete(core::GpuId gpu,
                                                 core::TaskId task) {
  if (identity_) {
    nodes_[0]->inner->notify_task_complete(gpu, task);
    return;
  }
  const Issued& issued = issued_[task];
  Node& node = *nodes_[issued.node];
  // The sub-graphs keep global task order, so the local id is the rank of
  // `task` among the node's tasks.
  const auto it = std::lower_bound(node.local_to_global_task.begin(),
                                   node.local_to_global_task.end(), task);
  MG_CHECK_MSG(it != node.local_to_global_task.end() && *it == task,
               "completion for a task the node never owned");
  node.inner->notify_task_complete(
      issued.local_gpu,
      static_cast<core::TaskId>(it - node.local_to_global_task.begin()));
}

void HierarchicalScheduler::notify_data_loaded(core::GpuId gpu,
                                               core::DataId data) {
  if (identity_) {
    nodes_[0]->inner->notify_data_loaded(gpu, data);
    return;
  }
  Node& node = *nodes_[platform_.node_of(gpu)];
  if (const core::DataId local = node.global_to_local_data[data];
      local != core::kInvalidData) {
    node.inner->notify_data_loaded(gpu - node.gpu_begin, local);
  }
}

void HierarchicalScheduler::notify_data_evicted(core::GpuId gpu,
                                                core::DataId data) {
  if (identity_) {
    nodes_[0]->inner->notify_data_evicted(gpu, data);
    return;
  }
  Node& node = *nodes_[platform_.node_of(gpu)];
  if (const core::DataId local = node.global_to_local_data[data];
      local != core::kInvalidData) {
    node.inner->notify_data_evicted(gpu - node.gpu_begin, local);
  }
}

std::vector<core::DataId> HierarchicalScheduler::prefetch_hints(
    core::GpuId gpu) {
  if (identity_) return nodes_[0]->inner->prefetch_hints(gpu);
  Node& node = *nodes_[platform_.node_of(gpu)];
  std::vector<core::DataId> hints =
      node.inner->prefetch_hints(gpu - node.gpu_begin);
  for (core::DataId& data : hints) data = node.local_to_global_data[data];
  return hints;
}

void HierarchicalScheduler::notify_node_suspected(core::NodeId node) {
  if (node < node_suspected_.size()) node_suspected_[node] = 1;
}

void HierarchicalScheduler::notify_node_suspicion_cleared(core::NodeId node) {
  if (node < node_suspected_.size()) node_suspected_[node] = 0;
}

core::EvictionPolicy* HierarchicalScheduler::eviction_policy(core::GpuId gpu) {
  if (identity_) return nodes_[0]->inner->eviction_policy(gpu);
  Node& node = *nodes_[platform_.node_of(gpu)];
  return node.evictors[gpu - node.gpu_begin].get();
}

}  // namespace mg::cluster
