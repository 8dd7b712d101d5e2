// Timing wrappers the traced run hands to the engine in place of the real
// components. Each forwards every virtual of its interface unchanged, so a
// traced run must make exactly the decisions of an untraced one (the
// benchmark checks that it does).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/eviction.hpp"
#include "core/scheduler.hpp"
#include "sim/inspector.hpp"
#include "sim/lru_eviction.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace core = mg::core;

class TracedEviction final : public core::EvictionPolicy {
 public:
  TracedEviction(core::EvictionPolicy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  void on_load(core::GpuId gpu, core::DataId data) override {
    Span span(&tracer_, Layer::kEvictHook);
    inner_.on_load(gpu, data);
  }
  void on_use(core::GpuId gpu, core::DataId data) override {
    Span span(&tracer_, Layer::kEvictHook);
    inner_.on_use(gpu, data);
  }
  void on_evict(core::GpuId gpu, core::DataId data) override {
    Span span(&tracer_, Layer::kEvictHook);
    inner_.on_evict(gpu, data);
  }
  [[nodiscard]] core::DataId choose_victim(
      core::GpuId gpu, std::span<const core::DataId> candidates) override {
    Span span(&tracer_, Layer::kEvictChoose);
    return inner_.choose_victim(gpu, candidates);
  }

 private:
  core::EvictionPolicy& inner_;
  Tracer& tracer_;
};

/// Forwards every core::Scheduler virtual to `inner`, inside a span when a
/// tracer is attached. With a tracer, eviction is timed too: the inner
/// scheduler's policy is wrapped, and where it asks for the engine default
/// a benchmark-owned sim::LruEviction, built exactly as the engine builds
/// its own (one instance shared by every GPU), stands in for it. Without a
/// tracer it is a plain forwarder — the base the self-check test derives
/// its slowed-down scheduler from.
class TracedScheduler : public core::Scheduler {
 public:
  TracedScheduler(core::Scheduler& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  void prepare(const core::TaskGraph& graph, const core::Platform& platform,
               std::uint64_t seed) override {
    num_gpus_ = platform.num_gpus;
    num_data_ = graph.num_data();
    Span span(tracer_, Layer::kPrepare);
    inner_.prepare(graph, platform, seed);
  }

  [[nodiscard]] core::TaskId pop_task(core::GpuId gpu,
                                      const core::MemoryView& memory) override {
    if (tracer_ == nullptr) return inner_.pop_task(gpu, memory);
    tracer_->begin(Layer::kPop);
    const core::TaskId task = inner_.pop_task(gpu, memory);
    tracer_->end_pop(task != core::kInvalidTask);
    return task;
  }

  [[nodiscard]] bool begin_streaming() override {
    Span span(tracer_, Layer::kNotify);
    return inner_.begin_streaming();
  }
  void notify_job_arrived(std::uint32_t job,
                          std::span<const core::TaskId> tasks) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_job_arrived(job, tasks);
  }
  [[nodiscard]] bool begin_dependencies() override {
    Span span(tracer_, Layer::kNotify);
    return inner_.begin_dependencies();
  }
  void notify_task_retired(
      core::TaskId task,
      std::span<const core::TaskId> enabled_successors) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_task_retired(task, enabled_successors);
  }
  void notify_job_priority(std::uint32_t job, std::uint32_t priority) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_job_priority(job, priority);
  }
  void notify_job_retired(std::uint32_t job) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_job_retired(job);
  }
  void notify_task_complete(core::GpuId gpu, core::TaskId task) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_task_complete(gpu, task);
  }
  void notify_occupancy(core::GpuId gpu, std::uint32_t active_warps,
                        std::uint32_t free_warps) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_occupancy(gpu, active_warps, free_warps);
  }
  void notify_data_loaded(core::GpuId gpu, core::DataId data) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_data_loaded(gpu, data);
  }
  void notify_data_evicted(core::GpuId gpu, core::DataId data) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_data_evicted(gpu, data);
  }
  [[nodiscard]] bool notify_gpu_lost(
      core::GpuId gpu, std::span<const core::TaskId> orphaned) override {
    Span span(tracer_, Layer::kNotify);
    return inner_.notify_gpu_lost(gpu, orphaned);
  }
  [[nodiscard]] bool notify_node_draining(
      core::NodeId node, std::span<const core::GpuId> gpus,
      std::span<const core::TaskId> orphaned) override {
    Span span(tracer_, Layer::kNotify);
    return inner_.notify_node_draining(node, gpus, orphaned);
  }
  void notify_node_added(core::NodeId node,
                         std::span<const core::GpuId> gpus) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_node_added(node, gpus);
  }
  [[nodiscard]] bool notify_node_lost(
      core::NodeId node, std::span<const core::GpuId> gpus,
      std::span<const core::TaskId> orphaned) override {
    Span span(tracer_, Layer::kNotify);
    return inner_.notify_node_lost(node, gpus, orphaned);
  }
  void notify_node_suspected(core::NodeId node) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_node_suspected(node);
  }
  void notify_node_suspicion_cleared(core::NodeId node) override {
    Span span(tracer_, Layer::kNotify);
    inner_.notify_node_suspicion_cleared(node);
  }
  [[nodiscard]] std::optional<ReplayDivergence> replay_divergence(
      core::GpuId gpu) override {
    Span span(tracer_, Layer::kNotify);
    return inner_.replay_divergence(gpu);
  }
  [[nodiscard]] std::vector<core::DataId> prefetch_hints(
      core::GpuId gpu) override {
    Span span(tracer_, Layer::kNotify);
    return inner_.prefetch_hints(gpu);
  }

  [[nodiscard]] core::EvictionPolicy* eviction_policy(core::GpuId gpu) override {
    core::EvictionPolicy* policy = inner_.eviction_policy(gpu);
    if (tracer_ == nullptr) return policy;
    if (policy == nullptr) {
      if (default_lru_ == nullptr) {
        default_lru_ = std::make_unique<mg::sim::LruEviction>(num_gpus_,
                                                              num_data_);
      }
      policy = default_lru_.get();
    }
    for (const auto& wrapper : wrappers_) {
      if (wrapper.first == policy) return wrapper.second.get();
    }
    wrappers_.emplace_back(policy,
                           std::make_unique<TracedEviction>(*policy, *tracer_));
    return wrappers_.back().second.get();
  }

 private:
  core::Scheduler& inner_;
  Tracer* tracer_;
  std::uint32_t num_gpus_ = 0;
  std::uint32_t num_data_ = 0;
  std::unique_ptr<mg::sim::LruEviction> default_lru_;
  std::vector<std::pair<core::EvictionPolicy*, std::unique_ptr<TracedEviction>>>
      wrappers_;
};

/// Times every call the engine makes into one inspector, booked to `layer`.
class TracedInspector final : public mg::sim::Inspector {
 public:
  TracedInspector(mg::sim::Inspector& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  void on_run_begin(const core::TaskGraph& graph,
                    const core::Platform& platform,
                    std::string_view scheduler_name) override {
    Span span(&tracer_, layer_);
    inner_.on_run_begin(graph, platform, scheduler_name);
  }
  void on_eviction_policy(core::GpuId gpu,
                          std::string_view policy_name) override {
    Span span(&tracer_, layer_);
    inner_.on_eviction_policy(gpu, policy_name);
  }
  void on_event(const mg::sim::InspectorEvent& event) override {
    ++events_;
    Span span(&tracer_, layer_);
    inner_.on_event(event);
  }
  void on_run_end(double makespan_us) override {
    Span span(&tracer_, layer_);
    inner_.on_run_end(makespan_us);
  }

  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  mg::sim::Inspector& inner_;
  Tracer& tracer_;
  Layer layer_;
  std::uint64_t events_ = 0;
};

}  // namespace perfbench
