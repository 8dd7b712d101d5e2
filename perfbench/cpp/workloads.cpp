#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "analysis/bounds.hpp"
#include "cluster/locality.hpp"
#include "core/darts.hpp"
#include "core/metrics.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/quality.hpp"
#include "sched/eager.hpp"
#include "sched/hmetis_r.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "util/rng.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"

namespace perfbench {
namespace {

namespace sim = mg::sim;
namespace serve = mg::serve;

// The paper's machine for the batch workloads: 4 V100s with 500 MB each.
constexpr std::uint32_t kGpus = 4;
constexpr std::uint64_t kGpuMemory = 500 * core::kMB;

// Batch workloads whose scheduler makes no seeded choice take their seed
// variation from the memory instead: each GPU gets 490-518 MB in 7 MB steps
// (half a matmul block), which moves the working set against memory and so
// the eviction pattern. cholesky_dag takes half of it: 245-259 MB in steps
// of about one tile.
std::uint64_t seeded_gpu_memory(std::uint64_t seed) {
  return (490 + 7 * (seed % 5)) * core::kMB;
}

// matmul_hmetis: Fig. 8's memory-constrained quick-sweep points. The sweep's
// two tail points (N=131, 142) take 15-21 s each and are left out. The
// partitioner's run time depends on its seed by up to 3x per point, far
// beyond host noise, so it keeps the figure harness's seed.
constexpr std::uint32_t kHmetisNs[] = {89, 103, 117};
constexpr std::uint64_t kPartitionerSeed = 42;

// cholesky_dag: N=100 tile DAG with its real dependencies (171,700 tasks)
// on half the memory, which keeps N=200's ~1.5 evictions per task on 500 MB
// GPUs. At N=200 a repetition takes 2-4 s over a 424 MB working set, which
// memory contention on a shared host slows by up to 2x for minutes at a
// time; N=100 repeats ~70 times in 30 s.
constexpr std::uint32_t kCholeskyN = 100;

// serve_cluster: 16 nodes x 2 GPUs serving 20k jobs of an N=8 matmul
// template, open-loop Poisson at a rate where bursts fill the in-flight
// slots and fuse (lower rates never batch); 20k rather than 10k jobs halves
// the seed-to-seed spread of the tail.
constexpr std::uint32_t kServeNodes = 16;
constexpr std::uint32_t kServeGpus = 32;
constexpr std::uint32_t kServeJobs = 20000;
constexpr std::uint32_t kServeTemplateN = 8;
constexpr double kServeRate = 900.0;
constexpr std::uint32_t kServeMaxInFlight = 24;
constexpr double kHighTierDeadlineUs = 12e3;
constexpr std::uint32_t kLinkPartitions = 4;

/// The scheduler the engine sees: the workload's own, optionally behind
/// the test seam and the tracing wrapper.
class SchedulerStack {
 public:
  SchedulerStack(core::Scheduler& inner, const RepOptions& options)
      : top_(&inner) {
    if (options.wrap) {
      seam_ = options.wrap(*top_);
      top_ = seam_.get();
    }
    if (options.tracer != nullptr) {
      traced_ = std::make_unique<TracedScheduler>(*top_, options.tracer);
      top_ = traced_.get();
    }
  }
  [[nodiscard]] core::Scheduler& top() { return *top_; }

 private:
  core::Scheduler* top_;
  std::unique_ptr<TracedScheduler> seam_;
  std::unique_ptr<TracedScheduler> traced_;
};

void check(RepResult& result, bool ok, std::string what) {
  if (!ok) result.failures.push_back(std::move(what));
}

std::uint64_t tasks_executed(const core::RunMetrics& metrics) {
  std::uint64_t executed = 0;
  for (const core::GpuMetrics& gpu : metrics.per_gpu) {
    executed += gpu.tasks_executed;
  }
  return executed;
}

/// One batch run of `graph` under `scheduler` on `kGpus` GPUs, folded into
/// `result` and checked. The graph is one job submitted at t=0, so its
/// latency is its makespan.
void run_batch(RepResult& result, const core::TaskGraph& graph,
               core::Scheduler& scheduler, std::uint64_t seed,
               std::uint64_t gpu_memory, const RepOptions& options) {
  const core::Platform platform = core::make_v100_platform(kGpus, gpu_memory);
  SchedulerStack stack(scheduler, options);
  sim::EngineConfig config;
  config.seed = seed;
  Section build(options.tracer, Layer::kEngineBuild);
  sim::RuntimeEngine engine(graph, platform, stack.top(), config);
  result.setup_s += build.stop();

  Section run(options.tracer, Layer::kRun);
  const core::RunMetrics metrics = engine.run();
  result.wall_s += run.stop();

  SimOutcome& sim_out = result.sim;
  sim_out.flops += metrics.total_flops;
  sim_out.makespan_us += metrics.makespan_us;
  sim_out.bytes_loaded += metrics.total_bytes_loaded();
  sim_out.loads += metrics.total_loads();
  sim_out.evictions += metrics.total_evictions();
  sim_out.events += engine.event_queue().events_processed();
  sim_out.latencies_us.push_back(metrics.makespan_us);
  sim_out.high_tier_latencies_us.push_back(metrics.makespan_us);
  check(result, tasks_executed(metrics) == graph.num_tasks(),
        "tasks executed != tasks in the graph");
  check(result,
        metrics.total_bytes_loaded() >=
            mg::analysis::min_load_bytes_lower_bound(graph),
        "loaded bytes below the every-data-once lower bound");
}

RepResult run_matmul_hmetis(std::uint64_t seed, const RepOptions& options) {
  RepResult result;
  for (const std::uint32_t n : kHmetisNs) {
    Section gen(options.tracer, Layer::kGen);
    const core::TaskGraph graph = mg::work::make_matmul_2d({.n = n});
    result.setup_s += gen.stop();
    mg::sched::HmetisScheduler hmetis;
    run_batch(result, graph, hmetis, kPartitionerSeed, seeded_gpu_memory(seed),
              options);
    if (options.tracer != nullptr) {
      const mg::hyper::PartitionQuality quality =
          mg::hyper::evaluate_partition(
              mg::hyper::hypergraph_from_task_graph(graph), hmetis.parts(),
              kGpus);
      result.connectivity_mb +=
          static_cast<double>(quality.connectivity_minus_1) / 1e6;
    }
  }
  return result;
}

RepResult run_cholesky_dag(std::uint64_t seed, const RepOptions& options) {
  RepResult result;
  Section gen(options.tracer, Layer::kGen);
  const core::TaskGraph graph = mg::work::make_cholesky_tasks(
      {.n = kCholeskyN, .with_dependencies = true});
  result.setup_s += gen.stop();
  mg::sched::EagerScheduler eager;
  run_batch(result, graph, eager, seed, seeded_gpu_memory(seed) / 2, options);
  return result;
}

/// Healing partitions between distinct node pairs, placed by `seed` in the
/// first 2 ms: with the template's data resident everywhere after warm-up,
/// remote fetches (and so timeouts and hedges) only happen early.
sim::FaultPlan link_partitions(std::uint64_t seed) {
  mg::util::Rng rng(seed ^ 0x5bd1e995u);
  sim::FaultPlan plan;
  plan.seed = seed;
  while (plan.link_faults.size() < kLinkPartitions) {
    sim::FaultPlan::LinkFault fault;
    fault.src = static_cast<core::NodeId>(rng.below(kServeNodes));
    fault.dst = static_cast<core::NodeId>(rng.below(kServeNodes));
    if (fault.src == fault.dst) continue;
    const bool repeated = std::any_of(
        plan.link_faults.begin(), plan.link_faults.end(), [&](const auto& f) {
          return (f.src == fault.src && f.dst == fault.dst) ||
                 (f.src == fault.dst && f.dst == fault.src);
        });
    if (repeated) continue;
    fault.start_us = rng.uniform() * 2e3;
    fault.end_us = fault.start_us + 20e3 + rng.uniform() * 40e3;
    fault.partition = true;
    plan.link_faults.push_back(fault);
  }
  return plan;
}

RepResult run_serve_cluster(std::uint64_t seed, const RepOptions& options) {
  RepResult result;
  Tracer* tracer = options.tracer;

  Section gen(tracer, Layer::kGen);
  std::vector<core::TaskGraph> templates;
  templates.push_back(mg::work::make_matmul_2d({.n = kServeTemplateN}));
  result.setup_s += gen.stop();
  std::vector<serve::JobSpec> jobs(kServeJobs);
  for (std::uint32_t job = 0; job < kServeJobs; ++job) {
    jobs[job].priority = job % 2;
  }

  core::Platform platform = core::make_v100_platform(kServeGpus, kGpuMemory);
  platform.num_nodes = kServeNodes;

  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = kServeRate;
  config.arrival.seed = seed;
  config.admission.max_jobs_in_flight = kServeMaxInFlight;
  config.engine.seed = seed;
  config.engine.fetch_timeout_factor = 6.0;
  config.engine.max_fetch_hedges = 2;
  config.slo.enabled = true;
  config.slo.tiers = mg::slo::TierPolicy{
      {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
       {.min_priority = 1,
        .deadline_us = kHighTierDeadlineUs,
        .admission_weight = 4}}};
  config.slo.protect_min_priority = 1;
  config.slo.batching = true;
  config.slo.max_batch = 4;
  config.slo.marginal_compute = 0.4;

  mg::cluster::LocalityScheduler locality;
  SchedulerStack stack(locality, options);
  Section build(tracer, Layer::kServeBuild);
  serve::ServeEngine engine(templates, jobs, platform, stack.top(), config);
  result.setup_s += build.stop();

  sim::FaultInjector injector(link_partitions(seed));
  engine.set_fault_injector(&injector);
  sim::InvariantChecker checker({.fail_fast = false});
  sim::RunReportCollector collector(
      {.context = "serve_cluster", .collect_trace = false});
  std::optional<TracedInspector> traced_checker;
  std::optional<TracedInspector> traced_collector;
  if (tracer != nullptr) {
    traced_checker.emplace(checker, *tracer, Layer::kCheck);
    traced_collector.emplace(collector, *tracer, Layer::kReport);
    engine.add_inspector(&*traced_checker);
    engine.add_inspector(&*traced_collector);
  } else {
    engine.add_inspector(&checker);
    engine.add_inspector(&collector);
  }

  Section run(tracer, Layer::kRun);
  const serve::ServeResult served = engine.run();
  result.wall_s = run.stop();

  // The serving layer fills in what the collector cannot see.
  sim::RunReport report = collector.report();
  report.serving = served.serving;
  report.slo.enabled = true;
  report.slo.tiers = served.slo.tiers;
  report.slo.per_tier = served.slo.per_tier;
  Section to_json(tracer, Layer::kToJson);
  const std::string json = sim::run_report_to_json(report);
  to_json.stop();
  if (tracer != nullptr) {
    result.json_bytes = json.size();
    result.check_events = traced_checker->events();
  }

  const core::RunMetrics& metrics = served.metrics;
  const serve::JobTracker& tracker = engine.tracker();
  const core::TaskGraph& union_graph = engine.union_graph().graph;
  SimOutcome& sim_out = result.sim;
  std::uint64_t shed_tasks = 0;
  for (std::uint32_t job = 0; job < kServeJobs; ++job) {
    if (tracker.shed(job)) {
      shed_tasks += templates[0].num_tasks();
      continue;
    }
    const double latency = tracker.finish_us(job) - tracker.submit_us(job);
    sim_out.latencies_us.push_back(latency);
    if (jobs[job].priority == 1) {
      sim_out.high_tier_latencies_us.push_back(latency);
    }
  }
  const sim::RunReport::Serving& serving = served.serving;
  sim_out.flops = serving.jobs_completed * templates[0].total_flops();
  sim_out.makespan_us = metrics.makespan_us;
  sim_out.bytes_loaded = metrics.total_bytes_loaded();
  sim_out.loads = metrics.total_loads();
  sim_out.evictions = metrics.total_evictions();
  sim_out.events = engine.engine().event_queue().events_processed();
  sim_out.deadline_jobs = serving.deadline_hits + serving.deadline_misses;
  sim_out.deadline_hits = serving.deadline_hits;
  sim_out.jobs_fused = report.slo.jobs_fused;
  sim_out.fetch_timeouts = report.network_faults.fetch_timeouts;
  sim_out.hedged_fetches = report.network_faults.hedged_fetches;
  sim_out.eviction_vetoes = report.slo.evictions_vetoed;
  sim_out.jobs_shed = serving.jobs_shed;

  check(result, checker.ok(), "invariant checker: " + checker.report().error);
  check(result,
        serving.jobs_completed + serving.jobs_shed == serving.jobs_submitted &&
            serving.jobs_submitted == kServeJobs,
        "completed + shed != submitted");
  check(result, tasks_executed(metrics) + shed_tasks == union_graph.num_tasks(),
        "tasks executed != tasks of the jobs not shed");
  check(result,
        metrics.total_bytes_loaded() >=
            mg::analysis::min_load_bytes_lower_bound(union_graph),
        "loaded bytes below the every-data-once lower bound");
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "matmul_darts", "matmul_hmetis", "cholesky_dag", "serve_cluster"};
  return names;
}

RepResult run_matmul_darts(std::uint32_t n, std::uint64_t seed,
                           const RepOptions& options) {
  RepResult result;
  Section gen(options.tracer, Layer::kGen);
  const core::TaskGraph graph = mg::work::make_matmul_2d({.n = n});
  result.setup_s += gen.stop();
  core::DartsScheduler darts({.use_luf = true});
  run_batch(result, graph, darts, seed, kGpuMemory, options);
  return result;
}

RepResult run_workload(std::string_view name, std::uint64_t seed,
                       const RepOptions& options) {
  try {
    if (name == "matmul_darts") return run_matmul_darts(285, seed, options);
    if (name == "matmul_hmetis") return run_matmul_hmetis(seed, options);
    if (name == "cholesky_dag") return run_cholesky_dag(seed, options);
    if (name == "serve_cluster") return run_serve_cluster(seed, options);
  } catch (const std::exception& error) {
    RepResult failed;
    failed.failures.push_back(std::string("run did not terminate: ") +
                              error.what());
    return failed;
  }
  RepResult unknown;
  unknown.failures.push_back("unknown workload");
  return unknown;
}

}  // namespace perfbench
