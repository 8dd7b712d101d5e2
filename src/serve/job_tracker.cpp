#include "serve/job_tracker.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace mg::serve {

double nearest_rank_percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::max(1.0, std::min(rank, static_cast<double>(sorted.size()))));
  return sorted[index - 1];
}

void JobTracker::bind(std::span<const std::uint32_t> task_job,
                      std::uint32_t num_jobs) {
  task_job_ = task_job;
  num_jobs_ = num_jobs;
  submit_us_.assign(num_jobs, -1.0);
  deadline_us_.assign(num_jobs, 0.0);
  arrival_us_.assign(num_jobs, -1.0);
  finish_us_.assign(num_jobs, -1.0);
  shed_.assign(num_jobs, 0);
  job_epoch_.assign(num_jobs, 0);
  counted_.assign(num_jobs, {});
}

void JobTracker::note_submitted(std::uint32_t job, double time_us,
                                double deadline_us) {
  MG_DCHECK(job < num_jobs_);
  submit_us_[job] = time_us;
  deadline_us_[job] = deadline_us;
}

void JobTracker::note_queue_depth(double time_us, std::uint32_t depth) {
  peak_queue_depth_ = std::max(peak_queue_depth_, depth);
  queue_depth_timeline_.emplace_back(time_us, depth);
}

void JobTracker::on_run_begin(const core::TaskGraph& graph,
                              const core::Platform& platform,
                              std::string_view scheduler_name) {
  (void)scheduler_name;
  MG_CHECK_MSG(task_job_.size() == graph.num_tasks(),
               "JobTracker::bind must map every union-graph task");
  graph_ = &graph;
  resident_.assign(platform.num_gpus,
                   std::vector<std::uint8_t>(graph.num_data(), 0));
  loaded_epoch_.assign(platform.num_gpus,
                       std::vector<std::uint32_t>(graph.num_data(), 0));
}

void JobTracker::on_event(const sim::InspectorEvent& event) {
  switch (event.kind) {
    case sim::InspectorEventKind::kJobArrival:
      ++epoch_;
      job_epoch_[event.id] = epoch_;
      arrival_us_[event.id] = event.time_us;
      ++in_flight_;
      peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
      break;
    case sim::InspectorEventKind::kJobComplete:
      finish_us_[event.id] = event.time_us;
      --in_flight_;
      // The job can never reuse again: release the list and its capacity.
      std::vector<std::uint64_t>().swap(counted_[event.id]);
      break;
    case sim::InspectorEventKind::kJobShed:
      shed_[event.id] = 1;
      break;
    case sim::InspectorEventKind::kLoadComplete:
      resident_[event.gpu][event.id] = 1;
      loaded_epoch_[event.gpu][event.id] = epoch_;
      break;
    case sim::InspectorEventKind::kEvict:
      resident_[event.gpu][event.id] = 0;
      break;
    case sim::InspectorEventKind::kGpuLost:
      std::fill(resident_[event.gpu].begin(), resident_[event.gpu].end(),
                std::uint8_t{0});
      break;
    case sim::InspectorEventKind::kTaskStart: {
      const std::uint32_t job = task_job_[event.id];
      for (core::DataId data : graph_->inputs(event.id)) {
        if (resident_[event.gpu][data] == 0) continue;
        if (loaded_epoch_[event.gpu][data] >= job_epoch_[job]) continue;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(event.gpu) << 32) | data;
        std::vector<std::uint64_t>& counted = counted_[job];
        const auto at = std::lower_bound(counted.begin(), counted.end(), key);
        if (at != counted.end() && *at == key) continue;
        counted.insert(at, key);
        reuse_bytes_ += graph_->data_size(data);
        ++reuse_hits_;
      }
      break;
    }
    default:
      break;
  }
}

sim::RunReport::Serving JobTracker::finalize(
    double makespan_us, std::string_view arrival_name) const {
  sim::RunReport::Serving serving;
  serving.enabled = true;
  serving.arrival = arrival_name;

  std::vector<double> latencies;
  for (std::uint32_t job = 0; job < num_jobs_; ++job) {
    if (submit_us_[job] >= 0.0) ++serving.jobs_submitted;
    if (shed_[job] != 0) {
      ++serving.jobs_shed;
      if (deadline_us_[job] > 0.0) ++serving.deadline_misses;
      continue;
    }
    if (finish_us_[job] < 0.0) continue;  // never completed (budget abort)
    ++serving.jobs_completed;
    const double submit =
        submit_us_[job] >= 0.0 ? submit_us_[job] : arrival_us_[job];
    const double latency = finish_us_[job] - submit;
    latencies.push_back(latency);
    if (deadline_us_[job] > 0.0) {
      if (latency <= deadline_us_[job]) {
        ++serving.deadline_hits;
      } else {
        ++serving.deadline_misses;
      }
    }
  }

  std::sort(latencies.begin(), latencies.end());
  serving.latency_p50_us = nearest_rank_percentile(latencies, 50.0);
  serving.latency_p95_us = nearest_rank_percentile(latencies, 95.0);
  serving.latency_p99_us = nearest_rank_percentile(latencies, 99.0);
  if (!latencies.empty()) {
    double sum = 0.0;
    for (double latency : latencies) sum += latency;
    serving.latency_mean_us = sum / static_cast<double>(latencies.size());
    serving.latency_max_us = latencies.back();
  }
  if (makespan_us > 0.0) {
    serving.throughput_jobs_per_s =
        static_cast<double>(serving.jobs_completed) / (makespan_us / 1e6);
  }
  const std::uint32_t with_deadline =
      serving.deadline_hits + serving.deadline_misses;
  if (with_deadline > 0) {
    serving.deadline_miss_rate =
        static_cast<double>(serving.deadline_misses) / with_deadline;
  }
  serving.cross_job_reuse_bytes = reuse_bytes_;
  serving.cross_job_reuse_hits = reuse_hits_;
  serving.peak_jobs_in_flight = peak_in_flight_;
  serving.peak_queue_depth = peak_queue_depth_;
  serving.queue_depth_timeline = queue_depth_timeline_;
  return serving;
}

}  // namespace mg::serve
