// Union graph — every job a streamed run may serve, merged into one
// core::TaskGraph the engine and scheduler operate on.
//
// Each job's tasks are a copy of its template's, in template order; they
// carry no labels (task_job and job_tasks name every task's job). Data is
// deduplicated per template: two jobs instantiating the same template read
// the *same* DataId, which is exactly what lets DARTS/LUF and DMDAR exploit
// inter-job data sharing — a tile loaded for job 3 is still resident when
// job 7 arrives. Building with share_data = false gives every job a private
// copy of its template's data instead (the ablation baseline: same work,
// zero cross-job reuse possible). Either way a job's data is one contiguous
// block of union DataIds in its template's order, so the builder sizes every
// array from the templates and copies each job in one pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/task_graph.hpp"
#include "serve/job.hpp"

namespace mg::serve {

struct UnionGraph {
  core::TaskGraph graph;
  std::uint32_t num_jobs = 0;

  /// task_job[t] = the job owning union-graph task t (dense, engine input).
  std::vector<std::uint32_t> task_job;

  /// Union-graph TaskIds of each job, in template order.
  std::vector<std::vector<core::TaskId>> job_tasks;

  /// Admission footprint of each job: its distinct input bytes plus its
  /// largest single-task output scratch.
  std::vector<std::uint64_t> job_footprint_bytes;

  /// First union DataId of each job's data block: the template's DataId d
  /// is union DataId job_data_base[job] + d (one block per template when
  /// data is shared).
  std::vector<core::DataId> job_data_base;

  /// Distinct DataIds each template's tasks read, ascending, in the
  /// template's numbering (empty for a template no job uses). A job's
  /// distinct inputs are these plus its job_data_base, still ascending.
  std::vector<std::vector<core::DataId>> template_inputs;
};

/// Merges one graph instance per job into a union graph. `jobs[i].graph`
/// indexes `templates`; every template a job uses must have at least one
/// task and neither dependency edges nor writes, which the union does not
/// copy.
[[nodiscard]] UnionGraph build_union_graph(
    std::span<const core::TaskGraph> templates, std::span<const JobSpec> jobs,
    bool share_data = true);

}  // namespace mg::serve
