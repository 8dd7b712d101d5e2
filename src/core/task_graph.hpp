// Bipartite task/data graph of Section III of the paper.
//
// Tasks T = {T_1..T_m} and data D = {D_1..D_n}; an edge (T_i, D_j) means T_i
// reads D_j. In the paper's base model tasks are independent (no task-task
// dependencies) and data are read-only inputs; outputs are excluded.
//
// Dependencies (first-class DAG workloads) restore what the paper flattened:
// a graph may additionally carry task->task edges, either declared explicitly
// (TaskGraphBuilder::add_dependency) or derived from read/write footprints
// (set_task_writes): in task-submission order, a write to D creates a new
// version of D, so a later reader depends on the last writer (RAW), a writer
// depends on every reader of the previous version (WAR) and on the previous
// writer (WAW). A task that both reads and writes D reads the *previous*
// version (no self-edge). Derived edges therefore always point forward in
// submission order; explicit edges may not create cycles (checked at build).
//
// Storage is CSR in both directions (task -> inputs, data -> consumers, and
// for dependencies predecessors/successors) so every scheduler query is a
// contiguous span scan. build() fills the dependency CSRs one successor at a
// time in submission order: each task's few incoming edges are sorted by
// pred and folded into the predecessor CSR, and the successor CSR is its
// counting-sort transpose, so the cost is linear in tasks + inputs + edges
// plus one short per-task sort. A graph without dependencies carries none of
// the dependency arrays — the independent-task fast paths stay untouched.
//
// Optional per-item arrays (task labels, data labels, output bytes, warp
// footprints) are kept only once some item is given a non-empty or non-zero
// value; the items before it read "" or 0, so a large unlabeled graph holds
// no strings at all. The consuming `std::move(builder).build()` moves the
// builder's arrays into the graph instead of copying them; `build() const&`
// copies the builder and consumes the copy. The graph is immutable after
// build().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ids.hpp"

namespace mg::core {

/// Kind of a dependency edge, as a bitmask: one deduplicated edge between a
/// (pred, succ) pair carries the union of every reason it exists.
enum DepKind : std::uint8_t {
  kDepExplicit = 1u << 0,  ///< declared via add_dependency
  kDepRaw = 1u << 1,       ///< read-after-write (true dependency)
  kDepWar = 1u << 2,       ///< write-after-read (anti dependency)
  kDepWaw = 1u << 3,       ///< write-after-write (output dependency)
};

/// Per-kind dependency edge counts. An edge carrying several kind bits
/// counts once per bit; `total` counts deduplicated edges.
struct DepEdgeCounts {
  std::uint64_t total = 0;
  std::uint64_t explicit_edges = 0;
  std::uint64_t raw = 0;
  std::uint64_t war = 0;
  std::uint64_t waw = 0;
};

class TaskGraph {
 public:
  [[nodiscard]] std::uint32_t num_tasks() const {
    return static_cast<std::uint32_t>(task_offsets_.size() - 1);
  }
  [[nodiscard]] std::uint32_t num_data() const {
    return static_cast<std::uint32_t>(data_offsets_.size() - 1);
  }

  /// Input data of a task, i.e. D(T_i) in the paper.
  [[nodiscard]] std::span<const DataId> inputs(TaskId task) const {
    return {task_inputs_.data() + task_offsets_[task],
            task_offsets_[task + 1] - task_offsets_[task]};
  }

  /// Tasks consuming a data item.
  [[nodiscard]] std::span<const TaskId> consumers(DataId data) const {
    return {data_consumers_.data() + data_offsets_[data],
            data_offsets_[data + 1] - data_offsets_[data]};
  }

  [[nodiscard]] std::uint64_t data_size(DataId data) const {
    return data_sizes_[data];
  }
  [[nodiscard]] double task_flops(TaskId task) const {
    return task_flops_[task];
  }

  /// Bytes of output the task produces (0 = outputs not modeled, the
  /// paper's default). Outputs are task-private scratch: they occupy GPU
  /// memory from task start until their write-back to the host completes.
  [[nodiscard]] std::uint64_t task_output_bytes(TaskId task) const {
    return task_outputs_.empty() ? 0 : task_outputs_[task];
  }

  /// True if any task declares output bytes.
  [[nodiscard]] bool has_outputs() const { return !task_outputs_.empty(); }

  /// Warp footprint of a task — the resident warps its kernel occupies while
  /// running (occupancy-aware GPU sharing). 0 = unspecified: the task claims
  /// the whole device, which is exactly the paper's exclusive-ownership
  /// model.
  [[nodiscard]] std::uint32_t task_warps(TaskId task) const {
    return task_warps_.empty() ? 0 : task_warps_[task];
  }

  /// True if any task declares a warp footprint.
  [[nodiscard]] bool has_warps() const { return !task_warps_.empty(); }

  /// Total bytes of the inputs of `task` (duplicates impossible: builder
  /// rejects repeated inputs).
  [[nodiscard]] std::uint64_t input_bytes(TaskId task) const;

  /// Sum of all task flops; the numerator of achieved GFlop/s.
  [[nodiscard]] double total_flops() const { return total_flops_; }

  /// Sum of all data sizes — the paper's "working set" (x axis of every
  /// figure).
  [[nodiscard]] std::uint64_t working_set_bytes() const {
    return working_set_bytes_;
  }

  /// Largest single-task footprint (inputs + output scratch); must fit in
  /// GPU memory for any schedule to exist.
  [[nodiscard]] std::uint64_t max_task_footprint() const;

  /// Optional human-readable label (kernel name, tile coordinates).
  [[nodiscard]] const std::string& task_label(TaskId task) const;
  [[nodiscard]] const std::string& data_label(DataId data) const;

  // ---- Dependencies (empty on independent-task graphs) --------------------

  /// True if the graph carries any task->task dependency edge.
  [[nodiscard]] bool has_dependencies() const { return !dep_succ_.empty(); }

  /// Tasks that must retire before `task` may start, ascending.
  [[nodiscard]] std::span<const TaskId> predecessors(TaskId task) const {
    if (dep_pred_offsets_.empty()) return {};
    return {dep_pred_.data() + dep_pred_offsets_[task],
            dep_pred_offsets_[task + 1] - dep_pred_offsets_[task]};
  }

  /// Tasks unblocked (in part) by `task` retiring, ascending.
  [[nodiscard]] std::span<const TaskId> successors(TaskId task) const {
    if (dep_succ_offsets_.empty()) return {};
    return {dep_succ_.data() + dep_succ_offsets_[task],
            dep_succ_offsets_[task + 1] - dep_succ_offsets_[task]};
  }

  /// Kind bitmasks parallel to predecessors(task) / successors(task).
  [[nodiscard]] std::span<const std::uint8_t> predecessor_kinds(
      TaskId task) const {
    if (dep_pred_offsets_.empty()) return {};
    return {dep_pred_kinds_.data() + dep_pred_offsets_[task],
            dep_pred_offsets_[task + 1] - dep_pred_offsets_[task]};
  }
  [[nodiscard]] std::span<const std::uint8_t> successor_kinds(
      TaskId task) const {
    if (dep_succ_offsets_.empty()) return {};
    return {dep_succ_kinds_.data() + dep_succ_offsets_[task],
            dep_succ_offsets_[task + 1] - dep_succ_offsets_[task]};
  }

  [[nodiscard]] std::uint32_t num_predecessors(TaskId task) const {
    if (dep_pred_offsets_.empty()) return 0;
    return dep_pred_offsets_[task + 1] - dep_pred_offsets_[task];
  }

  /// Deduplicated edge counts, split by kind bit.
  [[nodiscard]] const DepEdgeCounts& dependency_edge_counts() const {
    return dep_counts_;
  }

  /// Longest chain of dependent tasks, counted in tasks (0 without edges).
  [[nodiscard]] std::uint32_t critical_path_length() const {
    return critical_path_length_;
  }

  /// Data items `task` writes (a new version each), ascending; empty when the
  /// task writes nothing. Writes model ordering only — the simulated transfer
  /// traffic still follows the read footprints and task_output_bytes.
  [[nodiscard]] std::span<const DataId> writes(TaskId task) const {
    if (write_offsets_.empty()) return {};
    return {task_writes_.data() + write_offsets_[task],
            write_offsets_[task + 1] - write_offsets_[task]};
  }

  /// Tasks writing `data`, in version order (ascending task id).
  [[nodiscard]] std::span<const TaskId> writers(DataId data) const {
    if (writer_offsets_.empty()) return {};
    return {data_writers_.data() + writer_offsets_[data],
            writer_offsets_[data + 1] - writer_offsets_[data]};
  }

  [[nodiscard]] bool has_writes() const { return !task_writes_.empty(); }

 private:
  friend class TaskGraphBuilder;

  std::vector<std::uint32_t> task_offsets_;   // size m+1
  std::vector<DataId> task_inputs_;           // CSR task -> data
  std::vector<std::uint32_t> data_offsets_;   // size n+1
  std::vector<TaskId> data_consumers_;        // CSR data -> task
  std::vector<std::uint64_t> data_sizes_;     // bytes
  std::vector<double> task_flops_;
  std::vector<std::uint64_t> task_outputs_;   // empty when no outputs
  std::vector<std::uint32_t> task_warps_;     // empty when no warp footprints
  std::vector<std::string> task_labels_;      // empty when no labels
  std::vector<std::string> data_labels_;      // empty when no labels
  double total_flops_ = 0.0;
  std::uint64_t working_set_bytes_ = 0;

  // Dependency CSRs — all empty on an independent-task graph.
  std::vector<std::uint32_t> dep_succ_offsets_;  // size m+1 when edges exist
  std::vector<TaskId> dep_succ_;                 // CSR pred -> succ
  std::vector<std::uint8_t> dep_succ_kinds_;     // parallel kind bitmasks
  std::vector<std::uint32_t> dep_pred_offsets_;  // size m+1 when edges exist
  std::vector<TaskId> dep_pred_;                 // CSR succ -> pred
  std::vector<std::uint8_t> dep_pred_kinds_;
  std::vector<std::uint32_t> write_offsets_;     // size m+1 when writes exist
  std::vector<DataId> task_writes_;              // CSR task -> written data
  std::vector<std::uint32_t> writer_offsets_;    // size n+1 when writes exist
  std::vector<TaskId> data_writers_;             // CSR data -> writer tasks
  DepEdgeCounts dep_counts_;
  std::uint32_t critical_path_length_ = 0;
};

class TaskGraphBuilder {
 public:
  /// Makes room for `tasks` tasks reading `inputs` inputs in all, so a
  /// caller that knows the graph's size grows no array while adding it.
  void reserve(std::size_t tasks, std::size_t inputs);

  /// Registers a data item of `size_bytes`; returns its id (dense, 0-based).
  DataId add_data(std::uint64_t size_bytes, std::string_view label = {});

  /// Registers a task reading `inputs` (all previously added, no duplicates).
  TaskId add_task(double flops, std::span<const DataId> inputs,
                  std::string_view label = {});
  TaskId add_task(double flops, std::initializer_list<DataId> inputs,
                  std::string_view label = {});

  /// Declares that the most recently added task writes `bytes` of output
  /// (held in GPU memory from start until write-back completes).
  void set_task_output(TaskId task, std::uint64_t bytes);

  /// Declares the task's warp footprint for occupancy-aware GPU sharing.
  /// 0 (the default for every task) means "whole device" — exclusive
  /// ownership, the paper's model.
  void set_task_warps(TaskId task, std::uint32_t warps);

  /// Declares an explicit dependency: `succ` may not start before `pred`
  /// retires. Both tasks must already be added; self-edges are rejected and
  /// the final edge set must be acyclic (checked at build).
  void add_dependency(TaskId pred, TaskId succ);

  /// Declares that `task` writes `data`, producing a new version. RAW/WAR/WAW
  /// edges are derived at build() in task-submission order; a task reading
  /// and writing the same data reads the previous version (no self-edge).
  void set_task_writes(TaskId task, DataId data);

  [[nodiscard]] std::uint32_t num_tasks() const {
    return static_cast<std::uint32_t>(task_flops_.size());
  }
  [[nodiscard]] std::uint32_t num_data() const {
    return static_cast<std::uint32_t>(data_sizes_.size());
  }

  /// Finalizes the CSR structure from a copy of the builder, which stays as
  /// it is.
  [[nodiscard]] TaskGraph build() const&;

  /// Finalizes the CSR structure, moving the builder's arrays into the graph;
  /// the builder is left cleared.
  [[nodiscard]] TaskGraph build() &&;

  void clear();

 private:
  void build_dependencies(TaskGraph& graph) const;

  std::vector<std::uint32_t> task_offsets_{0};
  std::vector<DataId> task_inputs_;
  std::vector<std::uint64_t> data_sizes_;
  std::vector<double> task_flops_;
  // Empty until some item gets a non-zero value or a non-empty label.
  std::vector<std::uint64_t> task_outputs_;
  std::vector<std::uint32_t> task_warps_;
  std::vector<std::string> task_labels_;
  std::vector<std::string> data_labels_;
  std::vector<std::pair<TaskId, TaskId>> explicit_edges_;
  std::vector<std::pair<TaskId, DataId>> task_write_list_;  // submission order
};

}  // namespace mg::core
