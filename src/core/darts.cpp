#include "core/darts.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mg::core {

std::string darts_variant_name(const DartsOptions& options) {
  std::string name = "DARTS";
  if (options.use_luf) name += "+LUF";
  if (options.opti) name += "+OPTI";
  if (options.scan_threshold > 0) name += "+threshold";
  if (options.three_inputs) name += "-3inputs";
  if (options.incremental) name += "+incr";
  if (options.tier_boost > 0.0) name += "+tier";
  return name;
}

DartsScheduler::DartsScheduler(DartsOptions options)
    : options_(options), name_(darts_variant_name(options)) {}

void DartsScheduler::ScanList::init(std::uint32_t num_data) {
  next.resize(num_data + 1);
  prev.resize(num_data + 1);
  present.assign(num_data, 1);
  count = num_data;
  // Chain 0,1,...,n-1 with slot n as the sentinel.
  for (std::uint32_t data = 0; data <= num_data; ++data) {
    next[data] = data + 1 <= num_data ? data + 1 : 0;
    prev[data] = data > 0 ? data - 1 : num_data;
  }
  next[num_data] = num_data == 0 ? num_data : 0;
  prev[0] = num_data;
  next[num_data == 0 ? 0 : num_data - 1] = num_data;
  prev[num_data] = num_data == 0 ? num_data : num_data - 1;
}

void DartsScheduler::ScanList::remove(DataId data) {
  if (present[data] == 0) return;
  present[data] = 0;
  next[prev[data]] = next[data];
  prev[next[data]] = prev[data];
  --count;
}

void DartsScheduler::ScanList::push_back(DataId data) {
  if (present[data] != 0) return;
  present[data] = 1;
  const DataId tail = prev[sentinel()];
  next[tail] = data;
  prev[data] = tail;
  next[data] = sentinel();
  prev[sentinel()] = data;
  ++count;
}

void DartsScheduler::prepare(const TaskGraph& graph, const Platform& platform,
                             std::uint64_t seed) {
  MG_CHECK_MSG(!options_.incremental ||
                   (!options_.three_inputs && !options_.opti &&
                    options_.scan_threshold == 0),
               "incremental DARTS does not compose with the scan variants");
  graph_ = &graph;
  rng_.reseed(seed);

  const std::uint32_t num_tasks = graph.num_tasks();
  const std::uint32_t num_data = graph.num_data();
  dep_pending_.clear();
  if (deps_) {
    dep_pending_.resize(num_tasks);
    for (TaskId task = 0; task < num_tasks; ++task) {
      dep_pending_[task] = graph.num_predecessors(task);
    }
  }
  if (streaming_) {
    // Nothing has arrived yet: the shared pool fills via notify_job_arrived.
    state_.assign(num_tasks, TaskState::kUnsubmitted);
    available_.clear();
    available_pos_.assign(num_tasks, kNoPos);
  } else if (deps_) {
    // The shared pool is the ready frontier: only tasks without
    // predecessors start available; the rest join via notify_task_retired.
    state_.assign(num_tasks, TaskState::kUnsubmitted);
    available_.clear();
    available_pos_.assign(num_tasks, kNoPos);
    for (TaskId task = 0; task < num_tasks; ++task) {
      if (graph.num_predecessors(task) == 0) {
        state_[task] = TaskState::kAvailable;
        push_to_available(task);
      }
    }
  } else {
    state_.assign(num_tasks, TaskState::kAvailable);
    available_.resize(num_tasks);
    available_pos_.resize(num_tasks);
    for (TaskId task = 0; task < num_tasks; ++task) {
      available_[task] = task;
      available_pos_[task] = task;
    }
  }

  unprocessed_.assign(num_data, 0);
  for (TaskId task = 0; task < num_tasks; ++task) {
    if (state_[task] == TaskState::kUnsubmitted) continue;
    for (DataId data : graph.inputs(task)) ++unprocessed_[data];
  }
  single_input_offsets_.assign(1, 0);
  single_input_consumers_.clear();
  for (DataId data = 0; data < num_data; ++data) {
    for (TaskId task : graph.consumers(data)) {
      if (graph.inputs(task).size() == 1) {
        single_input_consumers_.push_back(task);
      }
    }
    single_input_offsets_.push_back(
        static_cast<std::uint32_t>(single_input_consumers_.size()));
  }
  resident_.assign(num_data, 0);
  free_counts_.assign(num_data, 0);
  visit_round_.assign(num_tasks, 0);
  round_ = 0;

  per_gpu_.assign(platform.num_gpus, PerGpu{});
  for (PerGpu& gpu_state : per_gpu_) {
    gpu_state.data_not_in_mem.init(num_data);
    gpu_state.use_stamp.assign(num_data, 0);
    if (options_.incremental) {
      gpu_state.in_mem.assign(num_data, 0);
      gpu_state.missing.resize(num_tasks);
      gpu_state.free_count.assign(num_data, 0);
      for (TaskId task = 0; task < num_tasks; ++task) {
        const auto degree =
            static_cast<std::uint32_t>(graph.inputs(task).size());
        gpu_state.missing[task] = degree;
        // n(D) counts *available* tasks only; a task joins the counters when
        // its job arrives (streaming) or its last predecessor retires (deps).
        if (state_[task] == TaskState::kAvailable && degree == 1) {
          ++gpu_state.free_count[graph.inputs(task)[0]];
        }
      }
    }
  }
  occ_hinted_ = false;
  occ_active_warps_.assign(platform.num_gpus, 0);
  occ_free_warps_.assign(platform.num_gpus, 0);
  // Priority announcements may precede prepare (the serving layer announces
  // at construction), so only the per-task projection resets here.
  task_priority_.assign(num_tasks, 0);
  use_clock_ = 0;
}

void DartsScheduler::notify_occupancy(GpuId gpu, std::uint32_t active_warps,
                                      std::uint32_t free_warps) {
  occ_hinted_ = true;
  occ_active_warps_[gpu] = active_warps;
  occ_free_warps_[gpu] = free_warps;
}

void DartsScheduler::notify_job_arrived(std::uint32_t job,
                                        std::span<const TaskId> tasks) {
  if (has_priorities_) {
    const std::uint32_t priority =
        job < job_priority_.size() ? job_priority_[job] : 0;
    for (TaskId task : tasks) task_priority_[task] = priority;
  }
  for (TaskId task : tasks) submit_task(task);
}

void DartsScheduler::submit_task(TaskId task) {
  MG_DCHECK(state_[task] == TaskState::kUnsubmitted);
  state_[task] = TaskState::kAvailable;
  push_to_available(task);
  for (DataId data : graph_->inputs(task)) ++unprocessed_[data];
  incremental_availability_change(task, +1);
}

void DartsScheduler::notify_job_priority(std::uint32_t job,
                                         std::uint32_t priority) {
  if (job >= job_priority_.size()) job_priority_.resize(job + 1, 0);
  job_priority_[job] = priority;
  if (priority > 0) has_priorities_ = true;
}

std::uint32_t DartsScheduler::data_priority(DataId data) const {
  std::uint32_t best = 0;
  for (TaskId task : graph_->consumers(data)) {
    if (state_[task] == TaskState::kAvailable) {
      best = std::max(best, task_priority(task));
    }
  }
  return best;
}

void DartsScheduler::notify_task_retired(
    TaskId task, std::span<const TaskId> enabled_successors) {
  // Keep the unretired-predecessor mirror fresh for the unlock weighting.
  for (TaskId succ : graph_->successors(task)) {
    if (dep_pending_[succ] > 0) --dep_pending_[succ];
  }
  // The enabled successors extend the ready frontier — the same move a
  // streamed job arrival makes, including the incremental n(D) bookkeeping.
  for (TaskId succ : enabled_successors) submit_task(succ);
}

std::uint64_t DartsScheduler::unlock_weight(TaskId task) const {
  std::uint64_t weight = 0;
  const auto inputs = graph_->inputs(task);
  for (TaskId succ : graph_->successors(task)) {
    // `task` has not retired, so it still counts in the successor's pending
    // total: a count of one means `task` is the last blocker.
    if (dep_pending_[succ] != 1) continue;
    std::uint64_t shared = 0;
    for (DataId data : graph_->inputs(succ)) {
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        ++shared;
      }
    }
    weight += 1 + shared;
  }
  // Tier boost: high-priority tasks score as if they unlocked extra
  // successors, so every successor-aware choice leans their way.
  if (tier_active()) {
    weight += static_cast<std::uint64_t>(
        options_.tier_boost * static_cast<double>(task_priority(task)));
  }
  return weight;
}

std::uint64_t DartsScheduler::successor_weight_of_data(DataId data) const {
  std::uint64_t weight = 0;
  for (TaskId task : graph_->consumers(data)) {
    if (state_[task] == TaskState::kAvailable) weight += unlock_weight(task);
  }
  return weight;
}

DataId DartsScheduler::choose_candidate_successor_aware() {
  std::uint64_t best_weight = 0;
  std::uint32_t best_consumers = 0;
  std::size_t tie_count = 0;
  DataId chosen = kInvalidData;
  for (DataId data : candidates_) {
    const std::uint64_t weight = successor_weight_of_data(data);
    const std::uint32_t consumers = count_unprocessed_consumers(data);
    if (chosen == kInvalidData || weight > best_weight ||
        (weight == best_weight && consumers > best_consumers)) {
      best_weight = weight;
      best_consumers = consumers;
      chosen = data;
      tie_count = 1;
    } else if (weight == best_weight && consumers == best_consumers) {
      ++tie_count;
      if (rng_.below(tie_count) == 0) chosen = data;
    }
  }
  return chosen;
}

TaskId DartsScheduler::take_available_successor_aware(
    GpuId gpu, const MemoryView* memory) {
  // Locality first: a narrow ready frontier makes this fallback the common
  // case on DAG runs, and a frontier task with fewer absent inputs costs
  // fewer host loads right now. Unlock weight only breaks locality ties —
  // the reverse ordering thrashes the cache once the working set spills.
  const PerGpu& gpu_state = per_gpu_[gpu];
  std::uint32_t best_missing = 0;
  std::uint64_t best_weight = 0;
  std::size_t tie_count = 0;
  TaskId chosen = kInvalidTask;
  for (TaskId task : available_) {
    std::uint32_t missing = 0;
    if (options_.incremental) {
      missing = gpu_state.missing[task];
    } else if (memory != nullptr) {
      for (DataId data : graph_->inputs(task)) {
        if (!memory->is_present_or_fetching(data)) ++missing;
      }
    }
    const std::uint64_t weight = unlock_weight(task);
    if (chosen == kInvalidTask || missing < best_missing ||
        (missing == best_missing && weight > best_weight)) {
      best_missing = missing;
      best_weight = weight;
      chosen = task;
      tie_count = 1;
    } else if (missing == best_missing && weight == best_weight) {
      ++tie_count;
      if (rng_.below(tie_count) == 0) chosen = task;
    }
  }
  if (chosen == kInvalidTask) return kInvalidTask;
  for (DataId data : graph_->inputs(chosen)) remove_data_from_scan(gpu, data);
  incremental_availability_change(chosen, -1);
  remove_from_available(chosen);
  mark_buffered(gpu, chosen);
  return chosen;
}

bool DartsScheduler::rest_in_memory(TaskId task, const MemoryView& memory,
                                    DataId extra, DataId extra2) const {
  for (DataId data : graph_->inputs(task)) {
    if (data == extra || data == extra2) continue;
    if (!memory.is_present_or_fetching(data)) return false;
  }
  return true;
}

std::uint32_t DartsScheduler::count_free_tasks(
    DataId data, const MemoryView& memory) const {
  std::uint32_t n = 0;
  for (TaskId task : graph_->consumers(data)) {
    if (state_[task] == TaskState::kAvailable &&
        rest_in_memory(task, memory, data)) {
      ++n;
    }
  }
  return n;
}

void DartsScheduler::count_all_free_tasks(GpuId gpu,
                                          const MemoryView& memory) {
  const ScanList& list = per_gpu_[gpu].data_not_in_mem;
  const auto num_data = static_cast<DataId>(resident_.size());
  for (DataId data = 0; data < num_data; ++data) {
    resident_[data] = memory.is_present_or_fetching(data) ? 1 : 0;
  }
  // A single-input task on an absent data is free through that data, and no
  // resident data leads to it.
  for (DataId data = list.first(); data != list.sentinel();
       data = list.after(data)) {
    std::uint32_t n = 0;
    if (resident_[data] == 0) {
      for (std::uint32_t i = single_input_offsets_[data];
           i < single_input_offsets_[data + 1]; ++i) {
        if (state_[single_input_consumers_[i]] == TaskState::kAvailable) ++n;
      }
    }
    free_counts_[data] = n;
  }
  // Every other free task has a resident input: visit each available
  // consumer of resident data once. With no absent input it is free through
  // each of its listed inputs (a listed data can be resident, e.g. an input
  // being re-fetched); with exactly one it is free through that input only.
  if (++round_ == 0) {
    std::fill(visit_round_.begin(), visit_round_.end(), 0);
    round_ = 1;
  }
  for (DataId data = 0; data < num_data; ++data) {
    if (resident_[data] == 0) continue;
    for (TaskId task : graph_->consumers(data)) {
      if (state_[task] != TaskState::kAvailable ||
          visit_round_[task] == round_) {
        continue;
      }
      visit_round_[task] = round_;
      const auto inputs = graph_->inputs(task);
      DataId absent = kInvalidData;
      std::uint32_t num_absent = 0;
      for (DataId input : inputs) {
        if (resident_[input] == 0) {
          absent = input;
          if (++num_absent > 1) break;
        }
      }
      if (num_absent == 0) {
        for (DataId input : inputs) {
          if (list.contains(input)) ++free_counts_[input];
        }
      } else if (num_absent == 1 && list.contains(absent)) {
        ++free_counts_[absent];
      }
    }
  }
#ifndef NDEBUG
  for (DataId data = list.first(); data != list.sentinel();
       data = list.after(data)) {
    MG_DCHECK(free_counts_[data] == count_free_tasks(data, memory));
  }
#endif
}

std::uint32_t DartsScheduler::count_unprocessed_consumers(DataId data) const {
  MG_DCHECK(unprocessed_[data] == recount_unprocessed_consumers(data));
  return unprocessed_[data];
}

std::uint32_t DartsScheduler::recount_unprocessed_consumers(
    DataId data) const {
  std::uint32_t count = 0;
  for (TaskId task : graph_->consumers(data)) {
    // Unsubmitted tasks are invisible: counting them would leak knowledge of
    // jobs that have not arrived yet into the tie-break.
    if (state_[task] != TaskState::kDone &&
        state_[task] != TaskState::kUnsubmitted) {
      ++count;
    }
  }
  return count;
}

TaskId DartsScheduler::pop_task(GpuId gpu, const MemoryView& memory) {
  PerGpu& gpu_state = per_gpu_[gpu];
  if (!gpu_state.planned.empty()) return pop_planned(gpu);
  if (available_.empty()) return kInvalidTask;
  if (options_.incremental) return pop_task_incremental(gpu);

  // Line 4-6 of Algorithm 5: find the data whose load frees the most tasks.
  // The list is scanned in submission order; the threshold variant caps how
  // many entries one decision may visit and rotates the start so successive
  // decisions cover the whole list rather than re-inspecting a stale prefix.
  const ScanList& list = gpu_state.data_not_in_mem;
  const std::size_t scan_limit =
      options_.scan_threshold > 0
          ? std::min<std::size_t>(options_.scan_threshold, list.count)
          : list.count;
  DataId scan_start = list.first();
  if (options_.scan_threshold > 0 && gpu_state.scan_cursor != kInvalidData &&
      list.contains(gpu_state.scan_cursor)) {
    scan_start = gpu_state.scan_cursor;
  }
  // A full scan needs n(D) for every listed data: count them all in one
  // pass. The partial OPTI and threshold scans count per visited data.
  const bool full_scan = !options_.opti && options_.scan_threshold == 0;
  if (full_scan) count_all_free_tasks(gpu, memory);
  std::uint32_t n_max = 0;
  candidates_.clear();
  DataId data = scan_start;
  for (std::size_t i = 0; i < scan_limit; ++i) {
    if (data == list.sentinel()) data = list.first();  // wrap
    const DataId current = data;
    data = list.after(data);
    const std::uint32_t n = full_scan ? free_counts_[current]
                                      : count_free_tasks(current, memory);
    if (n == 0) continue;
    if (options_.opti) {
      gpu_state.scan_cursor = data == list.sentinel() ? kInvalidData : data;
      return plan_and_pop(gpu, memory, current);
    }
    if (n > n_max) {
      n_max = n;
      candidates_.clear();
      candidates_.push_back(current);
    } else if (n == n_max) {
      candidates_.push_back(current);
    }
  }
  if (options_.scan_threshold > 0) {
    gpu_state.scan_cursor = data == list.sentinel() ? kInvalidData : data;
  }

  if (n_max > 0) {
    // On a dependency-gated run, break candidate ties towards the data
    // whose freed tasks unlock the most successors.
    if (deps_) {
      return plan_and_pop(gpu, memory, choose_candidate_successor_aware());
    }
    // Tier boost: each candidate's consumer score is lifted by its best
    // available consumer's priority, so data serving high-tier jobs is
    // planned first. Dormant runs never enter this branch (identical
    // decisions and RNG draws).
    if (tier_active()) {
      double best_score = -1.0;
      std::size_t tie_count = 0;
      DataId chosen = kInvalidData;
      for (DataId candidate : candidates_) {
        const double score =
            static_cast<double>(count_unprocessed_consumers(candidate)) +
            options_.tier_boost * static_cast<double>(data_priority(candidate));
        if (score > best_score) {
          best_score = score;
          chosen = candidate;
          tie_count = 1;
        } else if (score == best_score) {
          ++tie_count;
          if (rng_.below(tie_count) == 0) chosen = candidate;
        }
      }
      return plan_and_pop(gpu, memory, chosen);
    }
    // Lines 8-9: among data freeing n_max tasks, prefer the one useful to
    // the most unprocessed tasks overall; break remaining ties at random.
    std::uint32_t best_consumers = 0;
    std::size_t tie_count = 0;
    DataId chosen = kInvalidData;
    for (DataId candidate : candidates_) {
      const std::uint32_t consumers = count_unprocessed_consumers(candidate);
      if (consumers > best_consumers) {
        best_consumers = consumers;
        chosen = candidate;
        tie_count = 1;
      } else if (consumers == best_consumers) {
        // Reservoir-style uniform choice among ties.
        ++tie_count;
        if (rng_.below(tie_count) == 0) chosen = candidate;
      }
    }
    return plan_and_pop(gpu, memory, chosen);
  }

  // Line 13: no data frees a task.
  if (options_.three_inputs) {
    const TaskId task = take_three_inputs(gpu, memory);
    if (task != kInvalidTask) return task;
  }
  return take_random_available(gpu, &memory);
}

TaskId DartsScheduler::pop_task_incremental(GpuId gpu) {
  PerGpu& gpu_state = per_gpu_[gpu];
  // Max n(D) over dataNotInMem; ties by unprocessed consumers, then random.
  const ScanList& list = gpu_state.data_not_in_mem;
  std::uint32_t n_max = 0;
  candidates_.clear();
  for (DataId data = list.first(); data != list.sentinel();
       data = list.after(data)) {
    const std::uint32_t n = gpu_state.free_count[data];
    if (n == 0) continue;
    if (n > n_max) {
      n_max = n;
      candidates_.clear();
      candidates_.push_back(data);
    } else if (n == n_max) {
      candidates_.push_back(data);
    }
  }
  if (n_max > 0) {
    if (deps_) {
      return plan_and_pop_incremental(gpu, choose_candidate_successor_aware());
    }
    std::uint32_t best_consumers = 0;
    std::size_t tie_count = 0;
    DataId chosen = kInvalidData;
    for (DataId data : candidates_) {
      const std::uint32_t consumers = count_unprocessed_consumers(data);
      if (consumers > best_consumers) {
        best_consumers = consumers;
        chosen = data;
        tie_count = 1;
      } else if (consumers == best_consumers) {
        ++tie_count;
        if (rng_.below(tie_count) == 0) chosen = data;
      }
    }
    return plan_and_pop_incremental(gpu, chosen);
  }
  return take_random_available(gpu, nullptr);
}

TaskId DartsScheduler::plan_and_pop_incremental(GpuId gpu, DataId data) {
  PerGpu& gpu_state = per_gpu_[gpu];
  free_tasks_.clear();
  for (TaskId task : graph_->consumers(data)) {
    // missing == 1 and the task consumes the absent `data`, so `data` is
    // exactly its one absent input.
    if (state_[task] == TaskState::kAvailable &&
        gpu_state.missing[task] == 1) {
      free_tasks_.push_back(task);
    }
  }
  MG_DCHECK(free_tasks_.size() == gpu_state.free_count[data]);
  MG_CHECK_MSG(!free_tasks_.empty(), "incremental n(D) counter desync");
  for (TaskId task : free_tasks_) {
    state_[task] = TaskState::kPlanned;
    incremental_availability_change(task, -1);
    remove_from_available(task);
    gpu_state.planned.push_back(task);
  }
  remove_data_from_scan(gpu, data);
  return pop_planned(gpu);
}

DataId DartsScheduler::sole_missing_input(GpuId gpu, TaskId task) const {
  const PerGpu& gpu_state = per_gpu_[gpu];
  MG_DCHECK(gpu_state.missing[task] == 1);
  for (DataId data : graph_->inputs(task)) {
    if (gpu_state.in_mem[data] == 0) return data;
  }
  MG_CHECK_MSG(false, "missing-count desync in incremental DARTS");
  return kInvalidData;
}

void DartsScheduler::incremental_availability_change(TaskId task, int delta) {
  if (!options_.incremental) return;
  for (GpuId gpu = 0; gpu < per_gpu_.size(); ++gpu) {
    PerGpu& gpu_state = per_gpu_[gpu];
    if (gpu_state.missing[task] != 1) continue;
    const DataId missing = sole_missing_input(gpu, task);
    if (delta > 0) {
      ++gpu_state.free_count[missing];
    } else {
      MG_DCHECK(gpu_state.free_count[missing] > 0);
      --gpu_state.free_count[missing];
    }
  }
}

TaskId DartsScheduler::plan_and_pop(GpuId gpu, const MemoryView& memory,
                                    DataId data) {
  PerGpu& gpu_state = per_gpu_[gpu];
  free_tasks_.clear();
  for (TaskId task : graph_->consumers(data)) {
    if (state_[task] == TaskState::kAvailable &&
        rest_in_memory(task, memory, data)) {
      free_tasks_.push_back(task);
    }
  }
  MG_DCHECK(!free_tasks_.empty());
  for (TaskId task : free_tasks_) {
    state_[task] = TaskState::kPlanned;
    remove_from_available(task);
    gpu_state.planned.push_back(task);
  }
  remove_data_from_scan(gpu, data);
  return pop_planned(gpu);
}

TaskId DartsScheduler::pop_planned(GpuId gpu) {
  PerGpu& gpu_state = per_gpu_[gpu];
  MG_DCHECK(!gpu_state.planned.empty());
  // Sharing mode, GPU partially busy: prefer a planned task that fits the
  // free warps so it co-runs instead of blocking at admission. The plan's
  // data locality is preserved — only the pop order within the front of the
  // planned deque shifts.
  if (occ_hinted_ && occ_active_warps_[gpu] > 0) {
    const std::uint32_t free = occ_free_warps_[gpu];
    const std::size_t window = std::min<std::size_t>(8, gpu_state.planned.size());
    for (std::size_t i = 0; i < window; ++i) {
      const TaskId candidate = gpu_state.planned[i];
      const std::uint32_t warps = graph_->task_warps(candidate);
      if (warps != 0 && warps <= free) {
        gpu_state.planned.erase(gpu_state.planned.begin() +
                                static_cast<std::ptrdiff_t>(i));
        mark_buffered(gpu, candidate);
        return candidate;
      }
    }
  }
  const TaskId task = gpu_state.planned.front();
  gpu_state.planned.pop_front();
  mark_buffered(gpu, task);
  return task;
}

TaskId DartsScheduler::take_random_available(GpuId gpu,
                                             const MemoryView* memory) {
  if (available_.empty()) return kInvalidTask;
  // Dependency-gated runs replace the blind uniform pick with a
  // locality-then-unlock-weight choice over the ready frontier.
  if (deps_) return take_available_successor_aware(gpu, memory);
  TaskId task = kInvalidTask;
  if (tier_active()) {
    // Restrict the uniform pick to the highest-priority available tasks.
    std::uint32_t best_priority = 0;
    std::size_t tie_count = 0;
    for (TaskId candidate : available_) {
      const std::uint32_t priority = task_priority(candidate);
      if (task == kInvalidTask || priority > best_priority) {
        best_priority = priority;
        task = candidate;
        tie_count = 1;
      } else if (priority == best_priority) {
        ++tie_count;
        if (rng_.below(tie_count) == 0) task = candidate;
      }
    }
  } else {
    task = available_[rng_.pick_index(available_)];
  }
  for (DataId data : graph_->inputs(task)) remove_data_from_scan(gpu, data);
  incremental_availability_change(task, -1);
  remove_from_available(task);
  mark_buffered(gpu, task);
  return task;
}

TaskId DartsScheduler::take_three_inputs(GpuId gpu, const MemoryView& memory) {
  PerGpu& gpu_state = per_gpu_[gpu];
  const ScanList& list = gpu_state.data_not_in_mem;
  const std::size_t scan_limit =
      options_.scan_threshold > 0
          ? std::min<std::size_t>(options_.scan_threshold, list.count)
          : list.count;
  DataId cursor = list.first();
  if (options_.scan_threshold > 0 && gpu_state.scan_cursor != kInvalidData &&
      list.contains(gpu_state.scan_cursor)) {
    cursor = gpu_state.scan_cursor;
  }
  // Find the data enabling the most tasks that need exactly one further
  // load; return one of those tasks (Section V-E).
  std::uint32_t best_n = 0;
  DataId best_data = kInvalidData;
  for (std::size_t i = 0; i < scan_limit; ++i) {
    if (cursor == list.sentinel()) cursor = list.first();  // wrap
    const DataId data = cursor;
    cursor = list.after(cursor);
    std::uint32_t n = 0;
    for (TaskId task : graph_->consumers(data)) {
      if (state_[task] != TaskState::kAvailable) continue;
      std::uint32_t missing_others = 0;
      for (DataId input : graph_->inputs(task)) {
        if (input != data && !memory.is_present_or_fetching(input)) {
          ++missing_others;
          if (missing_others > 1) break;
        }
      }
      if (missing_others == 1) ++n;
    }
    if (n > best_n) {
      best_n = n;
      best_data = data;
    }
  }
  if (best_data == kInvalidData) return kInvalidTask;

  // Pick one qualifying task of best_data uniformly at random.
  free_tasks_.clear();
  for (TaskId task : graph_->consumers(best_data)) {
    if (state_[task] != TaskState::kAvailable) continue;
    std::uint32_t missing_others = 0;
    for (DataId input : graph_->inputs(task)) {
      if (input != best_data && !memory.is_present_or_fetching(input)) {
        ++missing_others;
      }
    }
    if (missing_others == 1) free_tasks_.push_back(task);
  }
  MG_DCHECK(!free_tasks_.empty());
  const TaskId task = free_tasks_[rng_.pick_index(free_tasks_)];
  for (DataId data : graph_->inputs(task)) remove_data_from_scan(gpu, data);
  remove_from_available(task);
  mark_buffered(gpu, task);
  return task;
}

void DartsScheduler::mark_buffered(GpuId gpu, TaskId task) {
  state_[task] = TaskState::kBuffered;
  per_gpu_[gpu].buffered.push_back(task);
}

void DartsScheduler::notify_task_complete(GpuId gpu, TaskId task) {
  MG_DCHECK(state_[task] == TaskState::kBuffered);
  state_[task] = TaskState::kDone;
  for (DataId data : graph_->inputs(task)) --unprocessed_[data];
  // The entry can be legitimately absent: when `gpu` died, notify_gpu_lost
  // cleared its whole taskBuffer, yet a task the engine had ejected from the
  // pipeline beforehand (fault-time dependency revocation) still reports its
  // completion against this GPU.
  auto& buffered = per_gpu_[gpu].buffered;
  auto it = std::find(buffered.begin(), buffered.end(), task);
  if (it != buffered.end()) buffered.erase(it);
}

void DartsScheduler::notify_data_loaded(GpuId gpu, DataId data) {
  // Normally the data was removed from the scan list when selected; this
  // covers loads triggered outside a planning decision.
  remove_data_from_scan(gpu, data);

  if (options_.incremental) {
    PerGpu& gpu_state = per_gpu_[gpu];
    if (gpu_state.in_mem[data] == 0) {
      gpu_state.in_mem[data] = 1;
      for (TaskId task : graph_->consumers(data)) {
        MG_DCHECK(gpu_state.missing[task] > 0);
        if (state_[task] == TaskState::kAvailable) {
          if (gpu_state.missing[task] == 1) {
            // Was free via `data`; now it needs no load at all.
            MG_DCHECK(gpu_state.free_count[data] > 0);
            --gpu_state.free_count[data];
          } else if (gpu_state.missing[task] == 2) {
            --gpu_state.missing[task];
            ++gpu_state.free_count[sole_missing_input(gpu, task)];
            continue;
          }
        }
        --gpu_state.missing[task];
      }
    }
  }
}

bool DartsScheduler::notify_gpu_lost(GpuId gpu,
                                     std::span<const TaskId> orphaned) {
  PerGpu& gpu_state = per_gpu_[gpu];

  // The orphans are the dead GPU's pipeline (taskBuffer) — back to the
  // shared pool so any survivor can pick them up at its next pop.
  for (TaskId task : orphaned) {
    MG_DCHECK(state_[task] == TaskState::kBuffered);
    state_[task] = TaskState::kAvailable;
    push_to_available(task);
    incremental_availability_change(task, +1);
  }
  gpu_state.buffered.clear();

  // Planned-but-unpopped tasks were reserved for the dead GPU; release the
  // reservation the same way Algorithm 6 line 8 does after an eviction.
  for (TaskId task : gpu_state.planned) {
    MG_DCHECK(state_[task] == TaskState::kPlanned);
    state_[task] = TaskState::kAvailable;
    push_to_available(task);
    incremental_availability_change(task, +1);
  }
  gpu_state.planned.clear();

  // Drop the dead GPU's loaded-data mirror so the incremental n(D) counters
  // stay consistent with availability changes that still sweep every GPU.
  if (options_.incremental) {
    for (DataId data = 0; data < gpu_state.in_mem.size(); ++data) {
      if (gpu_state.in_mem[data] != 0) notify_data_evicted(gpu, data);
    }
  }
  return true;
}

void DartsScheduler::notify_data_evicted(GpuId gpu, DataId data) {
  push_data_to_scan(gpu, data);

  if (options_.incremental) {
    PerGpu& gpu_state = per_gpu_[gpu];
    if (gpu_state.in_mem[data] != 0) {
      for (TaskId task : graph_->consumers(data)) {
        if (state_[task] == TaskState::kAvailable) {
          if (gpu_state.missing[task] == 0) {
            ++gpu_state.free_count[data];  // `data` becomes its sole miss
          } else if (gpu_state.missing[task] == 1) {
            const DataId other = sole_missing_input(gpu, task);
            MG_DCHECK(gpu_state.free_count[other] > 0);
            --gpu_state.free_count[other];
          }
        }
        ++gpu_state.missing[task];
      }
      gpu_state.in_mem[data] = 0;
    }
  }
}

void DartsScheduler::on_load(GpuId gpu, DataId data) {
  per_gpu_[gpu].use_stamp[data] = ++use_clock_;
}

void DartsScheduler::on_use(GpuId gpu, DataId data) {
  per_gpu_[gpu].use_stamp[data] = ++use_clock_;
}

void DartsScheduler::on_evict(GpuId gpu, DataId data) {
  // Algorithm 6 line 8: planned tasks depending on the victim go back to the
  // shared pool (their placement is reconsidered later).
  auto& planned = per_gpu_[gpu].planned;
  for (auto it = planned.begin(); it != planned.end();) {
    const auto inputs = graph_->inputs(*it);
    if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
      state_[*it] = TaskState::kAvailable;
      push_to_available(*it);
      incremental_availability_change(*it, +1);
      it = planned.erase(it);
    } else {
      ++it;
    }
  }
}

DataId DartsScheduler::choose_victim(GpuId gpu,
                                     std::span<const DataId> candidates) {
  const PerGpu& gpu_state = per_gpu_[gpu];

  // nb(D): uses by taskBuffer; np(D): uses by plannedTasks. Both computed on
  // the candidate set only, via the (small) task lists.
  auto count_uses = [this](const auto& tasks, DataId data) {
    std::uint32_t uses = 0;
    for (TaskId task : tasks) {
      const auto inputs = graph_->inputs(task);
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        ++uses;
      }
    }
    return uses;
  };

  // Line 5 of Algorithm 6: among data unused by the pipeline, evict the one
  // with the fewest planned uses. The paper leaves ties unspecified; we
  // break them by recency (least recently used first), so that "spent" data
  // go before data that current planning is still clustered around.
  DataId victim = kInvalidData;
  std::uint32_t best_np = ~std::uint32_t{0};
  std::uint64_t best_stamp = ~std::uint64_t{0};
  for (DataId data : candidates) {
    if (count_uses(gpu_state.buffered, data) != 0) continue;
    const std::uint32_t np = count_uses(gpu_state.planned, data);
    const std::uint64_t stamp = gpu_state.use_stamp[data];
    if (np < best_np || (np == best_np && stamp < best_stamp)) {
      best_np = np;
      best_stamp = stamp;
      victim = data;
    }
  }
  if (victim != kInvalidData) return victim;

  // Fallback (line 7): Belady's rule on the taskBuffer — evict the data
  // whose next use in pipeline order is the furthest away.
  std::size_t furthest = 0;
  for (DataId data : candidates) {
    std::size_t next_use = gpu_state.buffered.size();  // "never" sentinel
    for (std::size_t i = 0; i < gpu_state.buffered.size(); ++i) {
      const auto inputs = graph_->inputs(gpu_state.buffered[i]);
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        next_use = i;
        break;
      }
    }
    if (victim == kInvalidData || next_use > furthest) {
      victim = data;
      furthest = next_use;
    }
  }
  return victim;
}

void DartsScheduler::remove_from_available(TaskId task) {
  const std::uint32_t pos = available_pos_[task];
  MG_DCHECK(pos != kNoPos);
  const TaskId moved = available_.back();
  available_[pos] = moved;
  available_pos_[moved] = pos;
  available_.pop_back();
  available_pos_[task] = kNoPos;
}

void DartsScheduler::push_to_available(TaskId task) {
  MG_DCHECK(available_pos_[task] == kNoPos);
  available_pos_[task] = static_cast<std::uint32_t>(available_.size());
  available_.push_back(task);
}

void DartsScheduler::remove_data_from_scan(GpuId gpu, DataId data) {
  PerGpu& gpu_state = per_gpu_[gpu];
  if (!gpu_state.data_not_in_mem.contains(data)) return;
  if (gpu_state.scan_cursor == data) {
    const DataId next = gpu_state.data_not_in_mem.after(data);
    gpu_state.scan_cursor =
        next == gpu_state.data_not_in_mem.sentinel() ? kInvalidData : next;
  }
  gpu_state.data_not_in_mem.remove(data);
}

void DartsScheduler::push_data_to_scan(GpuId gpu, DataId data) {
  per_gpu_[gpu].data_not_in_mem.push_back(data);
}

}  // namespace mg::core
