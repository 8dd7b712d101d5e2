#include "serve/serve_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace mg::serve {

namespace {

AdmissionConfig effective_admission(AdmissionConfig config,
                                    const core::Platform& platform) {
  if (config.max_jobs_in_flight == 0 && config.max_bytes_in_flight == 0) {
    config.max_bytes_in_flight =
        static_cast<std::uint64_t>(platform.num_gpus) *
        platform.gpu_memory_bytes;
  }
  return config;
}

/// The occupancy governor's admission budget, recomputed from the engine
/// config (the governor itself is engine-private): the largest load the
/// strict active + new < threshold * total rule admits. 0 = governor off,
/// which the BatchPlanner reads as "no warp constraint on fusion".
std::uint32_t planner_budget_warps(const sim::EngineConfig& config,
                                   const core::Platform& platform) {
  if (config.occupancy_threshold <= 0.0) return 0;
  const double limit = config.occupancy_threshold *
                       static_cast<double>(platform.total_warps());
  double floor = std::floor(limit);
  if (floor == limit) floor -= 1.0;
  return static_cast<std::uint32_t>(std::max(floor, 0.0));
}

}  // namespace

ServeEngine::ServeEngine(std::span<const core::TaskGraph> templates,
                         std::span<const JobSpec> jobs,
                         const core::Platform& platform,
                         core::Scheduler& scheduler, ServeConfig config)
    : config_(config),
      jobs_(jobs.begin(), jobs.end()),
      union_(build_union_graph(templates, jobs, config.share_data)),
      admission_(effective_admission(config.admission, platform),
                 union_.job_footprint_bytes),
      engine_(union_.graph, platform, scheduler, config.engine) {
  if (config_.autoscale.enabled) {
    MG_CHECK_MSG(platform.is_cluster(),
                 "autoscaling needs a multi-node platform (num_nodes >= 2)");
    // Resolve the "0 = all nodes" default here so the policy's bound check
    // is real: an unbounded policy would keep issuing unappliable
    // scale-outs at full scale, and each one restamps the cooldown.
    if (config_.autoscale.max_nodes == 0 ||
        config_.autoscale.max_nodes > platform.num_nodes) {
      config_.autoscale.max_nodes = platform.num_nodes;
    }
    MG_CHECK_MSG(config_.autoscale.min_nodes <= platform.num_nodes,
                 "autoscaler min_nodes exceeds the platform's node count");
    autoscaler_.emplace(config_.autoscale);
  }
  engine_.enable_streaming(union_.task_job, union_.job_tasks);
  if (config_.slo.enabled) {
    if (config_.slo.batching) {
      MG_CHECK_MSG(config_.share_data,
                   "cross-job batching needs share_data: fused members must "
                   "read the same DataIds as their leader");
      planner_.emplace(union_, std::span<const JobSpec>(jobs_), config_.slo,
                       planner_budget_warps(config_.engine, platform));
    }
    if (config_.slo.protect_min_priority > 0) {
      protected_jobs_.assign(union_.num_jobs, 0);
    }
  }
  // Announce every job's dispatch priority up front — before any arrival —
  // so priority-aware schedulers can order their pops from the first job on.
  // Tier admission weights fold in, so a whole tier outranks another at
  // dispatch exactly as it does in the admission queue.
  for (std::uint32_t job = 0; job < jobs_.size(); ++job) {
    scheduler.notify_job_priority(job, effective_priority(job));
  }
  tracker_.bind(union_.task_job, union_.num_jobs);
  engine_.add_inspector(&tracker_);
  engine_.set_job_retired_callback(
      [this](std::uint32_t job) { on_job_retired(job); });
}

void ServeEngine::add_inspector(sim::Inspector* inspector) {
  engine_.add_inspector(inspector);
}

void ServeEngine::set_fault_injector(sim::FaultInjector* injector) {
  engine_.set_fault_injector(injector);
}

ServeResult ServeEngine::run() {
  sim::EventQueue& events = engine_.event_queue();
  const std::uint32_t num_jobs = union_.num_jobs;
  if (config_.arrival.mode == ArrivalMode::kPoisson) {
    // Every time is drawn now, but only the next arrival waits in the
    // queue: each one queues its successor under the sequence number it
    // would have taken here, so the pop order is that of queuing them all.
    poisson_times_us_ = poisson_arrival_times_us(
        num_jobs, config_.arrival.rate_jobs_per_s, config_.arrival.seed);
    poisson_sequence_ = events.reserve_sequences(num_jobs);
    schedule_poisson_arrival(0);  // build_union_graph rejects 0 jobs
    next_job_ = num_jobs;
  } else {
    MG_CHECK_MSG(config_.arrival.concurrency > 0,
                 "closed-loop arrival needs at least one client");
    const std::uint32_t initial =
        std::min(config_.arrival.concurrency, num_jobs);
    next_job_ = initial;
    for (std::uint32_t job = 0; job < initial; ++job) {
      events.schedule_at(0.0, [this, job] { submit(job); });
    }
  }

  if (autoscaler_.has_value()) schedule_autoscale_pump();

  ServeResult result;
  result.metrics = engine_.run();
  result.serving = tracker_.finalize(
      result.metrics.makespan_us, arrival_mode_name(config_.arrival.mode));
  result.scale_out_events = scale_out_applied_;
  result.scale_in_events = scale_in_applied_;

  if (config_.slo.enabled) {
    const slo::TierPolicy& tiers = config_.slo.tiers;
    result.slo.enabled = true;
    result.slo.tiers = tiers.num_tiers();
    result.slo.per_tier.resize(tiers.num_tiers());
    std::vector<std::vector<double>> latencies(tiers.num_tiers());
    for (std::uint32_t tier = 0; tier < tiers.num_tiers(); ++tier) {
      result.slo.per_tier[tier].tier = tier;
    }
    for (std::uint32_t job = 0; job < union_.num_jobs; ++job) {
      if (tracker_.shed(job) || tracker_.finish_us(job) < 0.0) continue;
      const std::uint32_t tier = tiers.tier_of(jobs_[job].priority);
      const double submit = tracker_.submit_us(job) >= 0.0
                                ? tracker_.submit_us(job)
                                : tracker_.arrival_us(job);
      const double latency = tracker_.finish_us(job) - submit;
      latencies[tier].push_back(latency);
      const double deadline = effective_deadline(job);
      if (deadline > 0.0 && latency > deadline) {
        ++result.slo.per_tier[tier].deadline_misses;
      }
    }
    for (std::uint32_t tier = 0; tier < tiers.num_tiers(); ++tier) {
      std::vector<double>& sample = latencies[tier];
      std::sort(sample.begin(), sample.end());
      sim::RunReport::Slo::Tier& out = result.slo.per_tier[tier];
      out.jobs = static_cast<std::uint32_t>(sample.size());
      out.p50_us = nearest_rank_percentile(sample, 50.0);
      out.p95_us = nearest_rank_percentile(sample, 95.0);
      out.p99_us = nearest_rank_percentile(sample, 99.0);
    }
  }
  return result;
}

std::uint32_t ServeEngine::effective_priority(std::uint32_t job) const {
  const std::uint32_t priority = jobs_[job].priority;
  if (!config_.slo.enabled) return priority;
  const slo::TierPolicy& tiers = config_.slo.tiers;
  return priority + tiers.spec(tiers.tier_of(priority)).admission_weight;
}

double ServeEngine::effective_deadline(std::uint32_t job) const {
  const double declared = jobs_[job].deadline_us;
  if (declared > 0.0 || !config_.slo.enabled) return declared;
  const slo::TierPolicy& tiers = config_.slo.tiers;
  return tiers.spec(tiers.tier_of(jobs_[job].priority)).deadline_us;
}

void ServeEngine::try_fuse(std::uint32_t leader, double now_us) {
  if (!planner_.has_value()) return;
  const std::vector<AdmissionController::QueueEntry> queued =
      admission_.queued();
  if (queued.empty()) return;
  std::vector<slo::BatchPlanner::QueuedJob> candidates;
  candidates.reserve(queued.size());
  for (const AdmissionController::QueueEntry& entry : queued) {
    candidates.push_back(
        slo::BatchPlanner::QueuedJob{entry.job, entry.enqueue_us});
  }
  // Fusion consumes the queue in admission order — tier weight first, FIFO
  // within a level — so a high-tier leader batches its own tier's waiters
  // instead of whichever low-tier job happens to sit at the queue's front.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this](const slo::BatchPlanner::QueuedJob& a,
                          const slo::BatchPlanner::QueuedJob& b) {
                     const std::uint32_t pa = effective_priority(a.job);
                     const std::uint32_t pb = effective_priority(b.job);
                     if (pa != pb) return pa > pb;
                     return a.enqueue_us < b.enqueue_us;
                   });
  const slo::BatchPlanner::Plan plan =
      planner_->plan(leader, now_us, candidates);
  if (plan.members.empty()) return;
  for (const std::uint32_t member : plan.members) {
    const bool taken = admission_.take(member);
    MG_CHECK_MSG(taken, "fusion member vanished from the admission queue");
  }
  engine_.fuse_jobs(leader, plan.members, plan.duration_scale);
  for (const std::uint32_t member : plan.members) protect_job(member);
  tracker_.note_queue_depth(now_us, admission_.queue_depth());
}

void ServeEngine::protect_job(std::uint32_t job) {
  if (protected_jobs_.empty()) return;  // protection not armed
  if (jobs_[job].priority < config_.slo.protect_min_priority) return;
  if (protected_jobs_[job] != 0) return;
  protected_jobs_[job] = 1;
  const std::uint32_t tier = config_.slo.tiers.tier_of(jobs_[job].priority);
  const core::DataId base = union_.job_data_base[job];
  for (const core::DataId data : union_.template_inputs[jobs_[job].graph]) {
    engine_.add_eviction_veto(base + data, tier);
  }
}

void ServeEngine::unprotect_job(std::uint32_t job) {
  if (protected_jobs_.empty() || protected_jobs_[job] == 0) return;
  protected_jobs_[job] = 0;
  const core::DataId base = union_.job_data_base[job];
  for (const core::DataId data : union_.template_inputs[jobs_[job].graph]) {
    engine_.remove_eviction_veto(base + data);
  }
}

void ServeEngine::schedule_autoscale_pump() {
  pump_scheduled_ = true;
  engine_.event_queue().schedule_after(config_.autoscale.check_interval_us,
                                       [this] { autoscale_pump(); });
}

void ServeEngine::autoscale_pump() {
  pump_scheduled_ = false;
  sim::EventQueue& events = engine_.event_queue();
  const std::uint64_t processed = events.events_processed();
  // "Quiet" tick: nothing but the pump itself ran since the last one. A
  // single quiet tick is normal while a long task computes, so the pump
  // parks only after a few in a row — enough to ride out task-length gaps,
  // few enough that a wedged run hands control back to the engine's
  // deadlock detection instead of spinning on pump ticks forever.
  constexpr std::uint32_t kParkAfterQuietTicks = 3;
  const bool quiet = processed - last_pump_events_ <= 1;
  last_pump_events_ = processed;
  quiet_ticks_ = quiet ? quiet_ticks_ + 1 : 0;

  const cluster::Autoscaler::Sample sample{
      events.now(), admission_.queue_depth(), admission_.jobs_in_flight(),
      engine_.active_node_count()};
  switch (autoscaler_->sample(sample)) {
    case cluster::Autoscaler::Decision::kScaleOut: {
      // Lowest inactive node first: joins retrace the drain order, so a
      // burst of out/in cycles keeps touching the same nodes.
      const std::uint32_t nodes = engine_.platform().num_nodes;
      for (core::NodeId node = 0; node < nodes; ++node) {
        if (engine_.node_status(node) ==
            sim::RuntimeEngine::NodeStatus::kInactive) {
          engine_.begin_node_join(node);
          ++scale_out_applied_;
          break;
        }
      }
      break;
    }
    case cluster::Autoscaler::Decision::kScaleIn: {
      // Highest active node first, mirroring the join order.
      const std::uint32_t nodes = engine_.platform().num_nodes;
      for (core::NodeId node = nodes; node-- > 0;) {
        if (engine_.node_status(node) ==
                sim::RuntimeEngine::NodeStatus::kActive &&
            engine_.active_node_count() > 1) {
          engine_.begin_node_drain(node);
          ++scale_in_applied_;
          break;
        }
      }
      break;
    }
    case cluster::Autoscaler::Decision::kHold:
      break;
  }

  // Reschedule unless the stream is over or the simulation stayed quiet (a
  // parked pump must not mask a deadlock or spin past the last retirement);
  // the next submit() revives it.
  if (jobs_finished_ < union_.num_jobs && quiet_ticks_ < kParkAfterQuietTicks) {
    schedule_autoscale_pump();
  }
}

void ServeEngine::submit(std::uint32_t job) {
  const double now = engine_.event_queue().now();
  if (autoscaler_.has_value() && !pump_scheduled_ &&
      jobs_finished_ < union_.num_jobs) {
    // Traffic is back: revive the parked sampling pump.
    quiet_ticks_ = 0;
    schedule_autoscale_pump();
  }
  tracker_.note_submitted(job, now, effective_deadline(job));
  switch (admission_.submit(job, effective_priority(job), now)) {
    case AdmissionController::Decision::kAdmit:
      // Fuse before releasing: release_job starts tasks immediately, and a
      // fused leader must carry its duration scale from the first launch.
      try_fuse(job, now);
      protect_job(job);
      engine_.release_job(job);
      break;
    case AdmissionController::Decision::kQueue:
      tracker_.note_queue_depth(now, admission_.queue_depth());
      break;
    case AdmissionController::Decision::kShed:
      ++jobs_finished_;
      engine_.shed_job(job);
      // A closed-loop client whose job was rejected moves on to its next
      // one; without this, every shed would shrink the effective
      // concurrency for the rest of the run.
      maybe_refill_closed_loop();
      break;
  }
}

void ServeEngine::on_job_retired(std::uint32_t job) {
  ++jobs_finished_;
  if (autoscaler_.has_value() && !pump_scheduled_ &&
      jobs_finished_ < union_.num_jobs) {
    // Keep sampling through the retirement tail (arrivals may be over, but
    // scale-in pressure only builds as the last jobs wind down).
    quiet_ticks_ = 0;
    schedule_autoscale_pump();
  }
  unprotect_job(job);
  admission_.on_job_retired(job);
  const double now = engine_.event_queue().now();
  bool drained = false;
  while (const auto next = admission_.try_admit_queued(now)) {
    try_fuse(*next, now);
    protect_job(*next);
    engine_.release_job(*next);
    drained = true;
  }
  if (drained) tracker_.note_queue_depth(now, admission_.queue_depth());
  maybe_refill_closed_loop();
}

void ServeEngine::schedule_poisson_arrival(std::uint32_t job) {
  engine_.event_queue().schedule_reserved(
      poisson_times_us_[job], poisson_sequence_ + job, [this, job] {
        if (job + 1 < poisson_times_us_.size()) {
          schedule_poisson_arrival(job + 1);
        }
        submit(job);
      });
}

void ServeEngine::maybe_refill_closed_loop() {
  if (config_.arrival.mode != ArrivalMode::kClosedLoop) return;
  if (next_job_ >= union_.num_jobs) return;
  const std::uint32_t job = next_job_++;
  engine_.event_queue().schedule_after(0.0, [this, job] { submit(job); });
}

void fill_serving_report(sim::RunReport& report, const ServeResult& result) {
  report.serving = result.serving;
  report.autoscaling.scale_out_events = result.scale_out_events;
  report.autoscaling.scale_in_events = result.scale_in_events;
  if (result.slo.enabled) {
    report.slo.enabled = true;
    report.slo.tiers = result.slo.tiers;
    report.slo.per_tier = result.slo.per_tier;
  }
}

}  // namespace mg::serve
