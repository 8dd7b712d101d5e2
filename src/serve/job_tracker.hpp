// JobTracker — the serving-side observer of a streamed run.
//
// Attached to the engine as an Inspector, it timestamps every job's
// submission (from the ServeEngine), arrival and completion (from the
// kJobArrival / kJobComplete events), scores deadlines, and measures
// *cross-job data reuse*: input bytes a task consumed from data that was
// already resident on its GPU before the task's job arrived — i.e. bytes
// left behind by earlier jobs and served from GPU memory instead of being
// loaded again over PCI. Reuse is counted once per (job, data, GPU).
// finalize() folds everything into the run report's "serving" section
// (schema v3, docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/inspector.hpp"
#include "sim/run_report.hpp"

namespace mg::serve {

/// Nearest-rank percentile `p` (0-100) of an ascending sample, 0 when it is
/// empty: the convention of every latency percentile the serving layer and
/// the ablations report.
[[nodiscard]] double nearest_rank_percentile(std::span<const double> sorted,
                                             double p);

class JobTracker final : public sim::Inspector {
 public:
  /// Wires the union-graph job structure; call before the run. `task_job`
  /// is read in place, so it must outlive the tracker.
  void bind(std::span<const std::uint32_t> task_job, std::uint32_t num_jobs);

  /// The arrival process handed `job` to admission at `time_us`;
  /// `deadline_us` is the job's SLO from that moment (0 = none).
  void note_submitted(std::uint32_t job, double time_us, double deadline_us);

  /// Admission-queue depth changed (ServeEngine-driven).
  void note_queue_depth(double time_us, std::uint32_t depth);

  // Inspector
  void on_run_begin(const core::TaskGraph& graph,
                    const core::Platform& platform,
                    std::string_view scheduler_name) override;
  void on_event(const sim::InspectorEvent& event) override;

  /// Builds the serving section after the run completed.
  [[nodiscard]] sim::RunReport::Serving finalize(
      double makespan_us, std::string_view arrival_name) const;

  // Raw per-job observations (tests, bespoke reporting). -1 = never seen.
  [[nodiscard]] double submit_us(std::uint32_t job) const {
    return submit_us_[job];
  }
  [[nodiscard]] double arrival_us(std::uint32_t job) const {
    return arrival_us_[job];
  }
  [[nodiscard]] double finish_us(std::uint32_t job) const {
    return finish_us_[job];
  }
  [[nodiscard]] bool shed(std::uint32_t job) const { return shed_[job] != 0; }
  [[nodiscard]] std::uint64_t cross_job_reuse_bytes() const {
    return reuse_bytes_;
  }
  [[nodiscard]] std::uint64_t cross_job_reuse_hits() const {
    return reuse_hits_;
  }

 private:
  const core::TaskGraph* graph_ = nullptr;
  std::span<const std::uint32_t> task_job_;
  std::uint32_t num_jobs_ = 0;

  std::vector<double> submit_us_;
  std::vector<double> deadline_us_;
  std::vector<double> arrival_us_;
  std::vector<double> finish_us_;
  std::vector<std::uint8_t> shed_;

  /// Arrival epochs order loads against job arrivals: data loaded at an
  /// epoch strictly before a job's arrival epoch predates the job.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> job_epoch_;
  std::vector<std::vector<std::uint8_t>> resident_;      // [gpu][data]
  std::vector<std::vector<std::uint32_t>> loaded_epoch_; // [gpu][data]
  /// (gpu << 32 | data) keys already counted for each in-flight job, kept
  /// sorted for binary search. Freed with its capacity at kJobComplete, so
  /// only in-flight jobs hold memory.
  std::vector<std::vector<std::uint64_t>> counted_;
  std::uint64_t reuse_bytes_ = 0;
  std::uint64_t reuse_hits_ = 0;

  std::uint32_t in_flight_ = 0;
  std::uint32_t peak_in_flight_ = 0;
  std::uint32_t peak_queue_depth_ = 0;
  std::vector<std::pair<double, std::uint32_t>> queue_depth_timeline_;
};

}  // namespace mg::serve
