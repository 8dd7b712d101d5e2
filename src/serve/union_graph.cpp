#include "serve/union_graph.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace mg::serve {

namespace {

/// What every instance of a template shares: its distinct inputs, the bytes
/// they add up to plus its largest output scratch, and its input-edge count.
struct TemplateSummary {
  std::vector<core::DataId> inputs;  ///< ascending, template numbering
  std::uint64_t footprint_bytes = 0;
  std::size_t input_edges = 0;
};

TemplateSummary summarize(const core::TaskGraph& tpl) {
  TemplateSummary summary;
  std::vector<std::uint8_t> read(tpl.num_data(), 0);
  std::uint64_t max_scratch = 0;
  for (core::TaskId task = 0; task < tpl.num_tasks(); ++task) {
    for (const core::DataId data : tpl.inputs(task)) read[data] = 1;
    summary.input_edges += tpl.inputs(task).size();
    max_scratch = std::max(max_scratch, tpl.task_output_bytes(task));
  }
  for (core::DataId data = 0; data < tpl.num_data(); ++data) {
    if (read[data] == 0) continue;
    summary.inputs.push_back(data);
    summary.footprint_bytes += tpl.data_size(data);
  }
  summary.footprint_bytes += max_scratch;
  return summary;
}

}  // namespace

UnionGraph build_union_graph(std::span<const core::TaskGraph> templates,
                             std::span<const JobSpec> jobs, bool share_data) {
  MG_CHECK_MSG(!jobs.empty(), "a streamed run needs at least one job");

  // Summarize each template once, on its first job, and size every array.
  std::vector<TemplateSummary> summaries(templates.size());
  std::vector<std::uint8_t> summarized(templates.size(), 0);
  std::size_t num_tasks = 0;
  std::size_t num_inputs = 0;
  for (const JobSpec& job : jobs) {
    MG_CHECK_MSG(job.graph < templates.size(),
                 "job references an unknown template graph");
    const core::TaskGraph& tpl = templates[job.graph];
    if (summarized[job.graph] == 0) {
      MG_CHECK_MSG(tpl.num_tasks() > 0, "every job must own at least one task");
      MG_CHECK_MSG(!tpl.has_dependencies() && !tpl.has_writes(),
                   "a job template may not declare dependencies or writes: "
                   "the union graph copies only inputs, flops, outputs and "
                   "warps");
      summaries[job.graph] = summarize(tpl);
      summarized[job.graph] = 1;
    }
    num_tasks += tpl.num_tasks();
    num_inputs += summaries[job.graph].input_edges;
  }

  UnionGraph out;
  out.num_jobs = static_cast<std::uint32_t>(jobs.size());
  out.task_job.reserve(num_tasks);
  out.job_tasks.resize(jobs.size());
  out.job_footprint_bytes.resize(jobs.size());
  out.job_data_base.resize(jobs.size());
  out.template_inputs.resize(templates.size());
  for (std::size_t t = 0; t < templates.size(); ++t) {
    out.template_inputs[t] = std::move(summaries[t].inputs);
  }

  core::TaskGraphBuilder builder;
  builder.reserve(num_tasks, num_inputs);
  // First union DataId of each template's shared data block; only used when
  // sharing, and kInvalidData until the template's first job adds it.
  std::vector<core::DataId> shared_base(templates.size(), core::kInvalidData);
  std::vector<core::DataId> inputs;
  for (std::uint32_t job = 0; job < jobs.size(); ++job) {
    const core::TaskGraph& tpl = templates[jobs[job].graph];
    core::DataId base =
        share_data ? shared_base[jobs[job].graph] : core::kInvalidData;
    if (base == core::kInvalidData) {
      base = builder.num_data();
      const std::string prefix =
          share_data ? std::string() : "j" + std::to_string(job) + ":";
      for (core::DataId data = 0; data < tpl.num_data(); ++data) {
        builder.add_data(tpl.data_size(data), prefix + tpl.data_label(data));
      }
      if (share_data) shared_base[jobs[job].graph] = base;
    }
    out.job_data_base[job] = base;

    std::vector<core::TaskId>& tasks = out.job_tasks[job];
    tasks.reserve(tpl.num_tasks());
    for (core::TaskId task = 0; task < tpl.num_tasks(); ++task) {
      inputs.clear();
      for (const core::DataId data : tpl.inputs(task)) {
        inputs.push_back(base + data);
      }
      const core::TaskId id = builder.add_task(tpl.task_flops(task), inputs);
      if (tpl.task_output_bytes(task) > 0) {
        builder.set_task_output(id, tpl.task_output_bytes(task));
      }
      const std::uint32_t warps =
          jobs[job].warps != 0 ? jobs[job].warps : tpl.task_warps(task);
      if (warps != 0) builder.set_task_warps(id, warps);
      tasks.push_back(id);
    }
    out.task_job.insert(out.task_job.end(), tpl.num_tasks(), job);
    out.job_footprint_bytes[job] = summaries[jobs[job].graph].footprint_bytes;
  }

  out.graph = std::move(builder).build();
  return out;
}

}  // namespace mg::serve
