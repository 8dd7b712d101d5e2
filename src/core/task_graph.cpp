#include "core/task_graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace mg::core {

namespace {
const std::string kEmptyLabel;

/// Offsets of a counting sort of `items` by `key(item)` < `num_buckets`:
/// bucket b spans [offsets[b], offsets[b + 1]).
template <typename Items, typename Key>
std::vector<std::uint32_t> bucket_offsets(std::uint32_t num_buckets,
                                          const Items& items, Key key) {
  std::vector<std::uint32_t> offsets(num_buckets + 1, 0);
  for (const auto& item : items) ++offsets[key(item) + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return offsets;
}

constexpr auto kIdentity = [](std::uint32_t id) { return id; };
}  // namespace

std::uint64_t TaskGraph::input_bytes(TaskId task) const {
  std::uint64_t bytes = 0;
  for (DataId data : inputs(task)) bytes += data_sizes_[data];
  return bytes;
}

std::uint64_t TaskGraph::max_task_footprint() const {
  std::uint64_t best = 0;
  for (TaskId task = 0; task < num_tasks(); ++task) {
    best = std::max(best, input_bytes(task) + task_output_bytes(task));
  }
  return best;
}

const std::string& TaskGraph::task_label(TaskId task) const {
  if (task_labels_.empty()) return kEmptyLabel;
  return task_labels_[task];
}

const std::string& TaskGraph::data_label(DataId data) const {
  if (data_labels_.empty()) return kEmptyLabel;
  return data_labels_[data];
}

DataId TaskGraphBuilder::add_data(std::uint64_t size_bytes, std::string label) {
  MG_CHECK_MSG(size_bytes > 0, "data must have non-zero size");
  data_sizes_.push_back(size_bytes);
  data_labels_.push_back(std::move(label));
  return static_cast<DataId>(data_sizes_.size() - 1);
}

TaskId TaskGraphBuilder::add_task(double flops, std::span<const DataId> inputs,
                                  std::string label) {
  MG_CHECK_MSG(flops > 0.0, "task must have positive flops");
  MG_CHECK_MSG(!inputs.empty(), "task must read at least one data");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    MG_CHECK_MSG(inputs[i] < data_sizes_.size(), "input data not registered");
    for (std::size_t j = i + 1; j < inputs.size(); ++j) {
      MG_CHECK_MSG(inputs[i] != inputs[j], "duplicate input data in task");
    }
  }
  task_inputs_.insert(task_inputs_.end(), inputs.begin(), inputs.end());
  task_offsets_.push_back(static_cast<std::uint32_t>(task_inputs_.size()));
  task_flops_.push_back(flops);
  task_outputs_.push_back(0);
  task_warps_.push_back(0);
  task_labels_.push_back(std::move(label));
  return static_cast<TaskId>(task_flops_.size() - 1);
}

void TaskGraphBuilder::set_task_output(TaskId task, std::uint64_t bytes) {
  MG_CHECK_MSG(task < task_flops_.size(), "unknown task");
  task_outputs_[task] = bytes;
}

void TaskGraphBuilder::set_task_warps(TaskId task, std::uint32_t warps) {
  MG_CHECK_MSG(task < task_flops_.size(), "unknown task");
  task_warps_[task] = warps;
}

void TaskGraphBuilder::add_dependency(TaskId pred, TaskId succ) {
  MG_CHECK_MSG(pred < task_flops_.size(), "unknown predecessor task");
  MG_CHECK_MSG(succ < task_flops_.size(), "unknown successor task");
  MG_CHECK_MSG(pred != succ, "self-dependency");
  explicit_edges_.emplace_back(pred, succ);
}

void TaskGraphBuilder::set_task_writes(TaskId task, DataId data) {
  MG_CHECK_MSG(task < task_flops_.size(), "unknown task");
  MG_CHECK_MSG(data < data_sizes_.size(), "written data not registered");
  // Catch the common duplicate (writes declared right after add_task);
  // build() checks every task's writes once it has bucketed and sorted them.
  for (auto it = task_write_list_.rbegin();
       it != task_write_list_.rend() && it->first == task; ++it) {
    MG_CHECK_MSG(it->second != data, "duplicate write declaration");
  }
  task_write_list_.emplace_back(task, data);
}

TaskId TaskGraphBuilder::add_task(double flops,
                                  std::initializer_list<DataId> inputs,
                                  std::string label) {
  return add_task(flops, std::span<const DataId>(inputs.begin(), inputs.size()),
                  std::move(label));
}

TaskGraph TaskGraphBuilder::build() const {
  TaskGraph graph;
  graph.task_offsets_ = task_offsets_;
  graph.task_inputs_ = task_inputs_;
  graph.data_sizes_ = data_sizes_;
  graph.task_flops_ = task_flops_;
  // Store outputs only when some task declares them (keeps has_outputs()
  // cheap and the common no-output case lean).
  if (std::any_of(task_outputs_.begin(), task_outputs_.end(),
                  [](std::uint64_t bytes) { return bytes > 0; })) {
    graph.task_outputs_ = task_outputs_;
  }
  // Same treatment for warp footprints: stored only when some task declares
  // one, so exclusive-model graphs carry no occupancy state at all.
  if (std::any_of(task_warps_.begin(), task_warps_.end(),
                  [](std::uint32_t warps) { return warps > 0; })) {
    graph.task_warps_ = task_warps_;
  }

  // Drop labels entirely when none were provided, to keep big graphs lean.
  const bool any_task_label = std::any_of(
      task_labels_.begin(), task_labels_.end(),
      [](const std::string& label) { return !label.empty(); });
  const bool any_data_label = std::any_of(
      data_labels_.begin(), data_labels_.end(),
      [](const std::string& label) { return !label.empty(); });
  if (any_task_label) graph.task_labels_ = task_labels_;
  if (any_data_label) graph.data_labels_ = data_labels_;

  // Reverse CSR: data -> consumers, stable in task order.
  const auto num_data = static_cast<std::uint32_t>(data_sizes_.size());
  graph.data_offsets_ = bucket_offsets(num_data, task_inputs_, kIdentity);
  graph.data_consumers_.resize(task_inputs_.size());
  std::vector<std::uint32_t> cursor(graph.data_offsets_.begin(),
                                    graph.data_offsets_.end() - 1);
  const auto num_tasks = static_cast<TaskId>(task_flops_.size());
  for (TaskId task = 0; task < num_tasks; ++task) {
    for (std::uint32_t e = task_offsets_[task]; e < task_offsets_[task + 1];
         ++e) {
      graph.data_consumers_[cursor[task_inputs_[e]]++] = task;
    }
  }

  graph.total_flops_ =
      std::accumulate(task_flops_.begin(), task_flops_.end(), 0.0);
  graph.working_set_bytes_ = std::accumulate(
      data_sizes_.begin(), data_sizes_.end(), std::uint64_t{0});

  build_dependencies(graph);
  return graph;
}

// Derives RAW/WAR/WAW edges from the write list and merges in the explicit
// edges one successor at a time, in submission order: a task's few incoming
// (pred, kind) pairs are sorted by pred and folded straight into the
// predecessor CSR, and the successor CSR is that CSR's transpose. Nothing
// sorts a whole list, so the cost is linear in tasks + inputs + edges. Then
// validates acyclicity. On a graph with neither writes nor explicit edges
// this is a no-op and every dependency array stays empty.
void TaskGraphBuilder::build_dependencies(TaskGraph& graph) const {
  if (explicit_edges_.empty() && task_write_list_.empty()) return;

  const auto num_tasks = static_cast<TaskId>(task_flops_.size());
  const auto num_data = static_cast<std::uint32_t>(data_sizes_.size());
  std::vector<std::uint32_t> cursor;  // fill position per counting-sort bucket

  // Write CSRs: task -> written data, bucketed by task and sorted ascending
  // per task (which puts any duplicate declaration side by side), and
  // data -> writer tasks in version order (ascending task id).
  if (!task_write_list_.empty()) {
    graph.write_offsets_ =
        bucket_offsets(num_tasks, task_write_list_,
                       [](const auto& write) { return write.first; });
    graph.task_writes_.resize(task_write_list_.size());
    cursor.assign(graph.write_offsets_.begin(), graph.write_offsets_.end() - 1);
    for (const auto& [task, data] : task_write_list_) {
      graph.task_writes_[cursor[task]++] = data;
    }
    for (TaskId task = 0; task < num_tasks; ++task) {
      DataId* begin = graph.task_writes_.data() + graph.write_offsets_[task];
      DataId* end = graph.task_writes_.data() + graph.write_offsets_[task + 1];
      std::sort(begin, end);
      MG_CHECK_MSG(std::adjacent_find(begin, end) == end,
                   "duplicate write declaration");
    }
    graph.writer_offsets_ =
        bucket_offsets(num_data, graph.task_writes_, kIdentity);
    graph.data_writers_.resize(task_write_list_.size());
    cursor.assign(graph.writer_offsets_.begin(),
                  graph.writer_offsets_.end() - 1);
    for (TaskId task = 0; task < num_tasks; ++task) {
      for (DataId data : graph.writes(task)) {
        graph.data_writers_[cursor[data]++] = task;
      }
    }
  }

  // Explicit predecessors, bucketed by successor.
  const std::vector<std::uint32_t> explicit_offsets = bucket_offsets(
      num_tasks, explicit_edges_, [](const auto& edge) { return edge.second; });
  std::vector<TaskId> explicit_preds(explicit_edges_.size());
  cursor.assign(explicit_offsets.begin(), explicit_offsets.end() - 1);
  for (const auto& [pred, succ] : explicit_edges_) {
    explicit_preds[cursor[succ]++] = pred;
  }

  // Edge derivation in task-submission order. Per data: the last writer so
  // far, and the readers of the current version as the window
  // [version_begin, read_end) of its consumer list, which holds the tasks in
  // the order this walk reaches them.
  std::vector<TaskId> last_writer(num_data, kInvalidTask);
  std::vector<std::uint32_t> version_begin(graph.data_offsets_.begin(),
                                           graph.data_offsets_.end() - 1);
  std::vector<std::uint32_t> read_end = version_begin;
  struct Incoming {
    TaskId pred;
    std::uint8_t kind;
  };
  std::vector<Incoming> incoming;
  std::vector<std::uint32_t> pred_offsets(num_tasks + 1, 0);
  std::vector<TaskId> preds;
  std::vector<std::uint8_t> pred_kinds;
  for (TaskId task = 0; task < num_tasks; ++task) {
    incoming.clear();
    for (std::uint32_t e = explicit_offsets[task];
         e < explicit_offsets[task + 1]; ++e) {
      incoming.push_back({explicit_preds[e], kDepExplicit});
    }
    // Reads bind to the current version: RAW from its writer, if any. A
    // task that also writes the data reads the previous version too.
    for (std::uint32_t e = task_offsets_[task]; e < task_offsets_[task + 1];
         ++e) {
      const DataId data = task_inputs_[e];
      if (last_writer[data] != kInvalidTask) {
        incoming.push_back({last_writer[data], kDepRaw});
      }
      ++read_end[data];
    }
    // Writes retire the current version: WAR from its readers, WAW from
    // its writer; the task becomes the new version's writer.
    for (DataId data : graph.writes(task)) {
      for (std::uint32_t r = version_begin[data]; r < read_end[data]; ++r) {
        const TaskId reader = graph.data_consumers_[r];
        if (reader != task) incoming.push_back({reader, kDepWar});
      }
      if (last_writer[data] != kInvalidTask) {
        incoming.push_back({last_writer[data], kDepWaw});
      }
      last_writer[data] = task;
      version_begin[data] = read_end[data];
    }
    // Ascending preds, one edge per pred carrying the OR of its kinds.
    std::sort(incoming.begin(), incoming.end(),
              [](const Incoming& a, const Incoming& b) {
                return a.pred < b.pred;
              });
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      if (i > 0 && incoming[i].pred == incoming[i - 1].pred) {
        pred_kinds.back() |= incoming[i].kind;
      } else {
        preds.push_back(incoming[i].pred);
        pred_kinds.push_back(incoming[i].kind);
      }
    }
    pred_offsets[task + 1] = static_cast<std::uint32_t>(preds.size());
  }
  if (preds.empty()) return;

  graph.dep_counts_.total = preds.size();
  for (const std::uint8_t kind : pred_kinds) {
    if (kind & kDepExplicit) ++graph.dep_counts_.explicit_edges;
    if (kind & kDepRaw) ++graph.dep_counts_.raw;
    if (kind & kDepWar) ++graph.dep_counts_.war;
    if (kind & kDepWaw) ++graph.dep_counts_.waw;
  }

  // Successor CSR: the transpose, filled in ascending successor order.
  graph.dep_succ_offsets_ = bucket_offsets(num_tasks, preds, kIdentity);
  graph.dep_succ_.resize(preds.size());
  graph.dep_succ_kinds_.resize(preds.size());
  cursor.assign(graph.dep_succ_offsets_.begin(),
                graph.dep_succ_offsets_.end() - 1);
  for (TaskId succ = 0; succ < num_tasks; ++succ) {
    for (std::uint32_t e = pred_offsets[succ]; e < pred_offsets[succ + 1];
         ++e) {
      const std::uint32_t slot = cursor[preds[e]]++;
      graph.dep_succ_[slot] = succ;
      graph.dep_succ_kinds_[slot] = pred_kinds[e];
    }
  }
  graph.dep_pred_offsets_ = std::move(pred_offsets);
  graph.dep_pred_ = std::move(preds);
  graph.dep_pred_kinds_ = std::move(pred_kinds);

  // Kahn topological sweep: validates acyclicity and yields the critical
  // path length (longest chain, counted in tasks).
  std::vector<std::uint32_t> pending(num_tasks);
  std::vector<std::uint32_t> depth(num_tasks, 1);
  std::vector<TaskId> frontier;
  for (TaskId task = 0; task < num_tasks; ++task) {
    pending[task] = graph.num_predecessors(task);
    if (pending[task] == 0) frontier.push_back(task);
  }
  std::uint32_t visited = 0;
  std::uint32_t longest = 0;
  while (!frontier.empty()) {
    const TaskId task = frontier.back();
    frontier.pop_back();
    ++visited;
    longest = std::max(longest, depth[task]);
    for (TaskId succ : graph.successors(task)) {
      depth[succ] = std::max(depth[succ], depth[task] + 1);
      if (--pending[succ] == 0) frontier.push_back(succ);
    }
  }
  MG_CHECK_MSG(visited == num_tasks, "dependency cycle in task graph");
  graph.critical_path_length_ = longest;
}

void TaskGraphBuilder::clear() {
  task_offsets_.assign(1, 0);
  task_inputs_.clear();
  data_sizes_.clear();
  task_flops_.clear();
  task_outputs_.clear();
  task_warps_.clear();
  task_labels_.clear();
  data_labels_.clear();
  explicit_edges_.clear();
  task_write_list_.clear();
}

}  // namespace mg::core
