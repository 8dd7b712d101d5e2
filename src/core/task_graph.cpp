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

/// Appends item `index`'s value to an optional per-item array, which stays
/// empty until the first non-default value; the items before that one then
/// read T{}. An unlabeled item thus constructs no string.
template <typename T, typename Value>
void append_optional(std::vector<T>& values, std::size_t index, Value value) {
  if (values.empty() && value == Value{}) return;
  values.resize(index);  // a no-op once the array is kept
  values.emplace_back(value);
}

/// Sets item `index` (of `count` items) in an optional per-item array.
template <typename T>
void set_optional(std::vector<T>& values, std::size_t count, std::size_t index,
                  T value) {
  if (values.empty() && value == T{}) return;
  values.resize(count);  // a no-op once the array is kept
  values[index] = value;
}

/// True if any entry is non-zero.
template <typename T>
bool any_nonzero(const std::vector<T>& values) {
  return std::any_of(values.begin(), values.end(),
                     [](T value) { return value != T{}; });
}
}  // namespace

std::uint64_t TaskGraph::input_bytes(TaskId task) const {
  std::uint64_t bytes = 0;
  for (DataId data : inputs(task)) bytes += data_sizes_[data];
  return bytes;
}

const std::string& TaskGraph::task_label(TaskId task) const {
  if (task_labels_.empty()) return kEmptyLabel;
  return task_labels_[task];
}

const std::string& TaskGraph::data_label(DataId data) const {
  if (data_labels_.empty()) return kEmptyLabel;
  return data_labels_[data];
}

void TaskGraphBuilder::reserve(std::size_t tasks, std::size_t inputs) {
  task_offsets_.reserve(tasks + 1);
  task_flops_.reserve(tasks);
  task_inputs_.reserve(inputs);
}

DataId TaskGraphBuilder::add_data(std::uint64_t size_bytes,
                                  std::string_view label) {
  MG_CHECK_MSG(size_bytes > 0, "data must have non-zero size");
  const auto id = static_cast<DataId>(data_sizes_.size());
  data_sizes_.push_back(size_bytes);
  append_optional(data_labels_, id, label);
  return id;
}

TaskId TaskGraphBuilder::add_task(double flops, std::span<const DataId> inputs,
                                  std::string_view label) {
  MG_CHECK_MSG(flops > 0.0, "task must have positive flops");
  MG_CHECK_MSG(!inputs.empty(), "task must read at least one data");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    MG_CHECK_MSG(inputs[i] < data_sizes_.size(), "input data not registered");
    for (std::size_t j = i + 1; j < inputs.size(); ++j) {
      MG_CHECK_MSG(inputs[i] != inputs[j], "duplicate input data in task");
    }
  }
  const auto id = static_cast<TaskId>(task_flops_.size());
  task_inputs_.insert(task_inputs_.end(), inputs.begin(), inputs.end());
  task_offsets_.push_back(static_cast<std::uint32_t>(task_inputs_.size()));
  task_flops_.push_back(flops);
  append_optional(task_outputs_, id, std::uint64_t{0});
  append_optional(task_warps_, id, std::uint32_t{0});
  append_optional(task_labels_, id, label);
  return id;
}

void TaskGraphBuilder::set_task_output(TaskId task, std::uint64_t bytes) {
  MG_CHECK_MSG(task < task_flops_.size(), "unknown task");
  set_optional(task_outputs_, task_flops_.size(), task, bytes);
}

void TaskGraphBuilder::set_task_warps(TaskId task, std::uint32_t warps) {
  MG_CHECK_MSG(task < task_flops_.size(), "unknown task");
  set_optional(task_warps_, task_flops_.size(), task, warps);
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
                                  std::string_view label) {
  return add_task(flops, std::span<const DataId>(inputs.begin(), inputs.size()),
                  label);
}

TaskGraph TaskGraphBuilder::build() const& {
  return TaskGraphBuilder(*this).build();
}

TaskGraph TaskGraphBuilder::build() && {
  TaskGraph graph;
  graph.task_offsets_ = std::move(task_offsets_);
  graph.task_inputs_ = std::move(task_inputs_);
  graph.data_sizes_ = std::move(data_sizes_);
  graph.task_flops_ = std::move(task_flops_);
  // Outputs and warp footprints are stored only when some task declares
  // one (keeps has_outputs()/has_warps() cheap and the common graphs lean).
  // The builder keeps an array from its first non-zero value, which a later
  // set may have put back to 0, hence the scans.
  if (any_nonzero(task_outputs_)) {
    graph.task_outputs_ = std::move(task_outputs_);
  }
  if (any_nonzero(task_warps_)) graph.task_warps_ = std::move(task_warps_);
  graph.task_labels_ = std::move(task_labels_);
  graph.data_labels_ = std::move(data_labels_);

  // Reverse CSR: data -> consumers, stable in task order. The same walk
  // over every input finds the largest task footprint.
  const auto num_data = static_cast<std::uint32_t>(graph.data_sizes_.size());
  graph.data_offsets_ = bucket_offsets(num_data, graph.task_inputs_, kIdentity);
  graph.data_consumers_.resize(graph.task_inputs_.size());
  std::vector<std::uint32_t> cursor(graph.data_offsets_.begin(),
                                    graph.data_offsets_.end() - 1);
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    std::uint64_t footprint = graph.task_output_bytes(task);
    for (const DataId data : graph.inputs(task)) {
      graph.data_consumers_[cursor[data]++] = task;
      footprint += graph.data_sizes_[data];
    }
    graph.max_task_footprint_ = std::max(graph.max_task_footprint_, footprint);
  }

  graph.total_flops_ =
      std::accumulate(graph.task_flops_.begin(), graph.task_flops_.end(), 0.0);
  graph.working_set_bytes_ =
      std::accumulate(graph.data_sizes_.begin(), graph.data_sizes_.end(),
                      std::uint64_t{0});

  build_dependencies(graph);
  clear();
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

  const std::uint32_t num_tasks = graph.num_tasks();
  const std::uint32_t num_data = graph.num_data();
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
    for (const DataId data : graph.inputs(task)) {
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
