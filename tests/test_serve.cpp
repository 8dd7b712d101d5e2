// Serving subsystem tests: union-graph construction (job maps, data sharing
// vs. the no-share ablation, pinned arrays), arrival processes, admission
// control,
// the streamed serving loop under every scheduler (with the online
// InvariantChecker), deadline scoring, cross-job reuse measurement,
// bit-identical run reports (including checkpointed permanent-GPU-loss
// runs), watchdog diagnostics that name the in-flight job count, and
// fault-plan composition with adoption attribution.
#include "serve/serve_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/darts.hpp"
#include "core/task_graph.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "serve/admission.hpp"
#include "serve/arrival.hpp"
#include "serve/observed_run.hpp"
#include "serve/union_graph.hpp"
#include "sim/errors.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "decision_pin.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"

namespace mg::serve {
namespace {

using core::DataId;
using core::TaskId;

/// Trivial arithmetic (1 byte transfers in 1 us, 1 flop computes in 1 us)
/// so every test time is hand-checkable.
core::Platform test_platform(std::uint32_t gpus, std::uint64_t memory) {
  core::Platform platform;
  platform.num_gpus = gpus;
  platform.gpu_memory_bytes = memory;
  platform.gpu_gflops = 1e-3;
  platform.bus_bandwidth_bytes_per_s = 1e6;
  platform.bus_latency_us = 0.0;
  return platform;
}

/// Job template: 4 data of 10 bytes, 6 tasks of 5 us each reading two
/// neighbouring data. Footprint = 40 bytes of distinct inputs.
core::TaskGraph make_template() {
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < 4; ++i) {
    data.push_back(builder.add_data(10, "d" + std::to_string(i)));
  }
  for (int t = 0; t < 6; ++t) {
    builder.add_task(5.0, {data[t % 4], data[(t + 1) % 4]},
                     "t" + std::to_string(t));
  }
  return builder.build();
}

using SchedulerFactory = std::function<std::unique_ptr<core::Scheduler>()>;

const std::vector<std::pair<std::string, SchedulerFactory>>& schedulers() {
  static const std::vector<std::pair<std::string, SchedulerFactory>> specs = {
      {"EAGER", [] { return std::make_unique<sched::EagerScheduler>(); }},
      {"DMDAR", [] { return std::make_unique<sched::DmdaScheduler>(); }},
      {"DARTS+LUF", [] { return std::make_unique<core::DartsScheduler>(); }},
      {"mHFP", [] { return std::make_unique<sched::HfpScheduler>(); }},
  };
  return specs;
}

TEST(UnionGraph, SharedDataIsDeduplicatedAcrossJobs) {
  const core::TaskGraph tmpl = make_template();
  const std::vector<core::TaskGraph> templates = {tmpl};
  const std::vector<JobSpec> jobs(3);

  const UnionGraph u = build_union_graph(templates, jobs, true);
  EXPECT_EQ(u.num_jobs, 3u);
  EXPECT_EQ(u.graph.num_tasks(), 3 * tmpl.num_tasks());
  EXPECT_EQ(u.graph.num_data(), tmpl.num_data());  // shared, not copied
  ASSERT_EQ(u.task_job.size(), u.graph.num_tasks());
  ASSERT_EQ(u.job_tasks.size(), 3u);
  for (std::uint32_t job = 0; job < 3; ++job) {
    ASSERT_EQ(u.job_tasks[job].size(), tmpl.num_tasks());
    for (const TaskId task : u.job_tasks[job]) {
      EXPECT_EQ(u.task_job[task], job);
    }
    // 4 distinct 10-byte inputs, no declared outputs.
    EXPECT_EQ(u.job_footprint_bytes[job], 40u);
  }
}

TEST(UnionGraph, NoShareGivesEveryJobPrivateData) {
  const core::TaskGraph tmpl = make_template();
  const std::vector<core::TaskGraph> templates = {tmpl};
  const std::vector<JobSpec> jobs(3);

  const UnionGraph u = build_union_graph(templates, jobs, false);
  EXPECT_EQ(u.graph.num_data(), 3 * tmpl.num_data());
  // No two jobs may touch a common DataId.
  std::vector<std::uint32_t> owner(u.graph.num_data(), ~0u);
  for (TaskId task = 0; task < u.graph.num_tasks(); ++task) {
    for (const DataId data : u.graph.inputs(task)) {
      if (owner[data] == ~0u) owner[data] = u.task_job[task];
      EXPECT_EQ(owner[data], u.task_job[task]);
    }
  }
}

// ---------------------------------------------------------------------------
// Union-graph pins: FNV-1a over every array the engine and the schedulers
// read, so a rewrite of build_union_graph must produce the same graphs.
// ---------------------------------------------------------------------------

/// The base arrays of the union graph, then num_jobs, task_job, every
/// job's task list (length-prefixed) and every job's footprint.
std::uint64_t union_fingerprint(const UnionGraph& u) {
  std::uint64_t hash = test::graph_arrays_fingerprint(u.graph);
  test::fnv1a_mix(hash, u.num_jobs, 4);
  test::fnv1a_mix_ids(hash, u.task_job);
  for (const std::vector<TaskId>& tasks : u.job_tasks) {
    test::fnv1a_mix_ids(hash, tasks);
  }
  for (const std::uint64_t bytes : u.job_footprint_bytes) {
    test::fnv1a_mix64(hash, bytes);
  }
  return hash;
}

/// What build_union_graph is given.
struct UnionInput {
  std::vector<core::TaskGraph> templates;
  std::vector<JobSpec> jobs;
  bool share_data = true;
};

/// serve_cluster's template (N=8 matmul, 64 tasks) x 2,000 jobs.
UnionInput serve_cluster_input() {
  UnionInput input;
  input.templates.push_back(work::make_matmul_2d({.n = 8}));
  input.jobs.resize(2000);
  for (std::uint32_t job = 0; job < input.jobs.size(); ++job) {
    input.jobs[job].priority = job % 2;
  }
  return input;
}

/// Two interleaved templates — Cholesky tasks with outputs (one to three
/// inputs each) and a shuffled matmul with warp footprints — and every
/// fourth job overriding its warps.
UnionInput mixed_input(bool share_data) {
  UnionInput input;
  input.templates.push_back(work::make_cholesky_tasks(
      {.n = 4, .tile_elems = 64, .with_outputs = true}));
  input.templates.push_back(work::make_matmul_2d({.n = 3,
                                                  .data_bytes = 4096,
                                                  .randomize_order = true,
                                                  .seed = 3,
                                                  .derive_warps = true}));
  input.jobs.resize(50);
  for (std::uint32_t job = 0; job < input.jobs.size(); ++job) {
    input.jobs[job].graph = job % 3 == 1 ? 1 : 0;
    if (job % 4 == 2) input.jobs[job].warps = 300;
  }
  input.share_data = share_data;
  return input;
}

struct UnionPinCase {
  const char* name;
  UnionInput (*input)();
  std::uint64_t expected;
};

void PrintTo(const UnionPinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

// Reference values: the builder that labelled every task "j<job>:<label>"
// and copied its arrays into the graph gives these arrays.
const UnionPinCase kUnionPinCases[] = {
    {"ServeClusterN8x2000", serve_cluster_input, 0x1c3b6c523cbc8deeULL},
    {"MixedTemplates", [] { return mixed_input(true); },
     0xddfda4eb8bc67611ULL},
    {"MixedTemplatesNoShare", [] { return mixed_input(false); },
     0x6cf93b22c6a1f2a7ULL},
};

class UnionGraphPin : public testing::TestWithParam<UnionPinCase> {};

TEST_P(UnionGraphPin, BuildRepeatsExactly) {
  const UnionPinCase& pin_case = GetParam();
  const UnionInput input = pin_case.input();
  const UnionGraph u =
      build_union_graph(input.templates, input.jobs, input.share_data);
  const std::uint64_t actual = union_fingerprint(u);
  EXPECT_EQ(actual, pin_case.expected) << "actual 0x" << std::hex << actual;

  // A job's data block plus its template's input list gives the job's
  // distinct inputs, ascending, as sorting its tasks' inputs does.
  ASSERT_EQ(u.job_data_base.size(), u.num_jobs);
  for (std::uint32_t job = 0; job < u.num_jobs; ++job) {
    std::vector<DataId> sorted;
    for (const TaskId task : u.job_tasks[job]) {
      const auto inputs = u.graph.inputs(task);
      sorted.insert(sorted.end(), inputs.begin(), inputs.end());
    }
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<DataId> block;
    for (const DataId data : u.template_inputs[input.jobs[job].graph]) {
      block.push_back(u.job_data_base[job] + data);
    }
    EXPECT_EQ(block, sorted) << "job " << job;
  }
}

INSTANTIATE_TEST_SUITE_P(Unions, UnionGraphPin,
                         testing::ValuesIn(kUnionPinCases),
                         [](const testing::TestParamInfo<UnionPinCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(UnionGraphDeathTest, RejectsTemplatesWithDependencies) {
  const std::vector<JobSpec> jobs(2);
  const std::vector<core::TaskGraph> dag = {
      work::make_cholesky_tasks({.n = 3, .with_dependencies = true})};
  EXPECT_DEATH((void)build_union_graph(dag, jobs), "dependencies or writes");

  // Writes that derive no edge are refused too: the union drops them.
  core::TaskGraphBuilder builder;
  const DataId data = builder.add_data(10);
  builder.set_task_writes(builder.add_task(1.0, {data}), data);
  const std::vector<core::TaskGraph> writes = {builder.build()};
  ASSERT_FALSE(writes[0].has_dependencies());
  EXPECT_DEATH((void)build_union_graph(writes, jobs),
               "dependencies or writes");
}

TEST(Arrival, PoissonIsDeterministicAndMonotonic) {
  const auto a = poisson_arrival_times_us(200, 100.0, 7);
  const auto b = poisson_arrival_times_us(200, 100.0, 7);
  const auto c = poisson_arrival_times_us(200, 100.0, 8);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);  // same seed, same stream
  EXPECT_NE(a, c);  // different seed, different stream
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mean inter-arrival gap of a 100 jobs/s process is 10'000 us; with 200
  // draws the sample mean lands well within a factor of two.
  const double mean_gap = a.back() / static_cast<double>(a.size());
  EXPECT_GT(mean_gap, 5e3);
  EXPECT_LT(mean_gap, 2e4);
}

TEST(Arrival, ParseModeNames) {
  EXPECT_EQ(parse_arrival_mode("poisson"), ArrivalMode::kPoisson);
  EXPECT_EQ(parse_arrival_mode("closed-loop"), ArrivalMode::kClosedLoop);
  EXPECT_EQ(parse_arrival_mode("closed"), ArrivalMode::kClosedLoop);
  EXPECT_FALSE(parse_arrival_mode("uniform").has_value());
}

TEST(Admission, AdmitQueueShedLifecycle) {
  AdmissionController admission({.max_jobs_in_flight = 1, .max_queue_depth = 1},
                                {10, 10, 10, 10});
  EXPECT_EQ(admission.submit(0, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.submit(1, 0), AdmissionController::Decision::kQueue);
  EXPECT_EQ(admission.submit(2, 0), AdmissionController::Decision::kShed);
  EXPECT_EQ(admission.jobs_in_flight(), 1u);
  EXPECT_EQ(admission.queue_depth(), 1u);

  admission.on_job_retired(0);
  EXPECT_EQ(admission.jobs_in_flight(), 0u);
  const auto next = admission.try_admit_queued();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);
  EXPECT_FALSE(admission.try_admit_queued().has_value());
}

TEST(Admission, QueuePopsByPriorityThenFifo) {
  AdmissionController admission({.max_jobs_in_flight = 1}, {10, 10, 10, 10});
  EXPECT_EQ(admission.submit(0, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.submit(1, 0), AdmissionController::Decision::kQueue);
  EXPECT_EQ(admission.submit(2, 5), AdmissionController::Decision::kQueue);
  EXPECT_EQ(admission.submit(3, 5), AdmissionController::Decision::kQueue);

  std::vector<std::uint32_t> order;
  for (std::uint32_t retired : {0u, 2u, 3u}) {
    admission.on_job_retired(retired);
    const auto next = admission.try_admit_queued();
    ASSERT_TRUE(next.has_value());
    order.push_back(*next);
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 3, 1}));
}

TEST(Admission, OversizedJobAdmittedIntoEmptySystem) {
  // A job larger than the byte budget must not wedge the run: it is
  // admitted whenever nothing else is in flight.
  AdmissionController admission({.max_bytes_in_flight = 50}, {100, 100});
  EXPECT_EQ(admission.submit(0, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.submit(1, 0), AdmissionController::Decision::kQueue);
  admission.on_job_retired(0);
  EXPECT_EQ(admission.try_admit_queued(), 1u);
}

TEST(Admission, ByteBudgetBoundsConcurrentFootprint) {
  AdmissionController admission({.max_bytes_in_flight = 25}, {10, 10, 10});
  EXPECT_EQ(admission.submit(0, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.submit(1, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(admission.submit(2, 0), AdmissionController::Decision::kQueue);
  EXPECT_EQ(admission.bytes_in_flight(), 20u);
  admission.on_job_retired(0);
  EXPECT_EQ(admission.try_admit_queued(), 2u);
  EXPECT_EQ(admission.bytes_in_flight(), 20u);
}

/// Streams `num_jobs` template instances and returns the result; asserts
/// the InvariantChecker saw a clean run.
ServeResult stream_jobs(core::Scheduler& scheduler, ServeConfig config,
                        std::uint32_t num_jobs, double deadline_us = 0.0,
                        sim::FaultInjector* injector = nullptr) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  std::vector<JobSpec> jobs(num_jobs);
  for (JobSpec& job : jobs) job.deadline_us = deadline_us;
  ServeEngine engine(templates, jobs, test_platform(2, 100), scheduler,
                     config);
  if (injector != nullptr) engine.set_fault_injector(injector);
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  ServeResult result = engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  return result;
}

TEST(ServeEngine, EverySchedulerStreamsCleanlyUnderBothArrivalModes) {
  for (const auto& [name, factory] : schedulers()) {
    for (const ArrivalMode mode :
         {ArrivalMode::kPoisson, ArrivalMode::kClosedLoop}) {
      ServeConfig config;
      config.arrival.mode = mode;
      config.arrival.rate_jobs_per_s = 2e4;  // mean gap 50 us: overlap
      config.arrival.concurrency = 3;
      auto scheduler = factory();
      const ServeResult result = stream_jobs(*scheduler, config, 20);
      EXPECT_EQ(result.serving.jobs_submitted, 20u)
          << name << " " << arrival_mode_name(mode);
      EXPECT_EQ(result.serving.jobs_completed, 20u)
          << name << " " << arrival_mode_name(mode);
      EXPECT_EQ(result.serving.jobs_shed, 0u);
      EXPECT_GT(result.serving.throughput_jobs_per_s, 0.0);
      EXPECT_LE(result.serving.latency_p50_us, result.serving.latency_p95_us);
      EXPECT_LE(result.serving.latency_p95_us, result.serving.latency_p99_us);
      EXPECT_LE(result.serving.latency_p99_us, result.serving.latency_max_us);
    }
  }
}

TEST(ServeEngine, HundredJobStreamIsInvariantCleanFaultedAndFaultFree) {
  for (const auto& [name, factory] : schedulers()) {
    for (const bool faulted : {false, true}) {
      ServeConfig config;
      config.arrival.mode = ArrivalMode::kClosedLoop;
      config.arrival.concurrency = 4;
      sim::FaultPlan plan;
      plan.gpu_losses.push_back({200.0, 1});
      sim::FaultInjector injector(plan);
      auto scheduler = factory();
      const ServeResult result =
          stream_jobs(*scheduler, config, 120, 0.0,
                      faulted ? &injector : nullptr);
      EXPECT_EQ(result.serving.jobs_completed, 120u)
          << name << (faulted ? " faulted" : "");
      if (faulted) EXPECT_EQ(result.metrics.faults.gpu_losses, 1u);
    }
  }
}

TEST(ServeEngine, ClosedLoopNeverExceedsConcurrency) {
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 3;
  core::DartsScheduler scheduler;
  const ServeResult result = stream_jobs(scheduler, config, 30);
  EXPECT_LE(result.serving.peak_jobs_in_flight, 3u);
  EXPECT_GT(result.serving.peak_jobs_in_flight, 0u);
}

TEST(ServeEngine, CrossJobReuseRequiresSharing) {
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 2;

  core::DartsScheduler shared_scheduler;
  config.share_data = true;
  const ServeResult shared = stream_jobs(shared_scheduler, config, 12);
  EXPECT_GT(shared.serving.cross_job_reuse_hits, 0u);
  EXPECT_GT(shared.serving.cross_job_reuse_bytes, 0u);

  core::DartsScheduler private_scheduler;
  config.share_data = false;
  const ServeResult ablated = stream_jobs(private_scheduler, config, 12);
  EXPECT_EQ(ablated.serving.cross_job_reuse_hits, 0u);
  EXPECT_EQ(ablated.serving.cross_job_reuse_bytes, 0u);
  // Same work without sharing must pay for more host-bus loads.
  EXPECT_GT(ablated.metrics.total_loads(), shared.metrics.total_loads());
}

struct ReuseTally {
  std::uint64_t fusions = 0;
  std::uint64_t wiped = 0;
  std::uint64_t refused_recounts = 0;
  std::uint64_t reuse_hits = 0;
  std::uint64_t reuse_bytes = 0;
};

/// An independent recount of cross-job reuse off the event stream, plus a
/// tally of the paths the pins below name: fusions, resident data wiped by
/// a GPU loss, and task starts that read an input reloaded on their GPU
/// after their job arrived, once the same (job, data, GPU) had already
/// counted (a recount the arrival-order rule refuses). Loads and arrivals
/// are ordered by their position in the stream.
class ReuseAudit final : public sim::Inspector {
 public:
  explicit ReuseAudit(const UnionGraph& graph) : union_(graph) {}

  void on_run_begin(const core::TaskGraph& graph,
                    const core::Platform& platform,
                    std::string_view /*scheduler_name*/) override {
    loaded_at_.assign(platform.num_gpus,
                      std::vector<std::int64_t>(graph.num_data(), -1));
    arrived_at_.assign(union_.num_jobs, 0);
  }

  void on_event(const sim::InspectorEvent& event) override {
    ++position_;
    switch (event.kind) {
      case sim::InspectorEventKind::kJobsFused:
        ++tally.fusions;
        break;
      case sim::InspectorEventKind::kJobArrival:
        arrived_at_[event.id] = position_;
        break;
      case sim::InspectorEventKind::kLoadComplete:
        loaded_at_[event.gpu][event.id] = position_;
        break;
      case sim::InspectorEventKind::kEvict:
        loaded_at_[event.gpu][event.id] = -1;
        break;
      case sim::InspectorEventKind::kGpuLost:
        for (std::int64_t& loaded : loaded_at_[event.gpu]) {
          if (loaded >= 0) ++tally.wiped;
          loaded = -1;
        }
        break;
      case sim::InspectorEventKind::kTaskStart: {
        const std::uint32_t job = union_.task_job[event.id];
        for (const DataId data : union_.graph.inputs(event.id)) {
          const std::int64_t loaded = loaded_at_[event.gpu][data];
          if (loaded < 0) continue;
          const auto key = std::make_tuple(job, event.gpu, data);
          if (loaded > arrived_at_[job]) {
            if (counted_.count(key) != 0) ++tally.refused_recounts;
            continue;
          }
          if (counted_.insert(key).second) {
            ++tally.reuse_hits;
            tally.reuse_bytes += union_.graph.data_size(data);
          }
        }
        break;
      }
      default:
        break;
    }
  }

  ReuseTally tally;

 private:
  const UnionGraph& union_;
  std::int64_t position_ = 0;
  std::vector<std::vector<std::int64_t>> loaded_at_;  // [gpu][data], -1 = not
  std::vector<std::int64_t> arrived_at_;
  std::set<std::tuple<std::uint32_t, core::GpuId, DataId>> counted_;
};

struct ReuseRun {
  ServeResult result;
  ReuseTally tally;
};

ReuseRun audited_reuse_run(core::Scheduler& scheduler, const ServeConfig& config,
                           const std::vector<JobSpec>& jobs,
                           std::uint64_t memory,
                           sim::FaultInjector* injector = nullptr) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  ServeEngine engine(templates, jobs, test_platform(2, memory), scheduler,
                     config);
  if (injector != nullptr) engine.set_fault_injector(injector);
  sim::InvariantChecker checker({.fail_fast = false});
  ReuseAudit audit(engine.union_graph());
  engine.add_inspector(&checker);
  engine.add_inspector(&audit);
  ReuseRun run{engine.run(), audit.tally};
  EXPECT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_EQ(run.result.serving.jobs_completed, jobs.size());
  // The tracker counts exactly what the independent recount counts.
  EXPECT_EQ(run.result.serving.cross_job_reuse_hits, run.tally.reuse_hits);
  EXPECT_EQ(run.result.serving.cross_job_reuse_bytes, run.tally.reuse_bytes);
  return run;
}

// Exact reuse accounting on three streams, each through the path it names.
TEST(ServeEngine, CrossJobReusePinPoissonWithFusedJobs) {
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 1e5;  // saturating: fusable waiters
  config.arrival.seed = 7;
  config.admission.max_jobs_in_flight = 2;
  config.engine.seed = 7;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy{
      {{.min_priority = 0}, {.min_priority = 2, .admission_weight = 4}}};
  config.slo.batching = true;
  config.slo.max_batch = 3;
  config.slo.marginal_compute = 0.5;
  std::vector<JobSpec> jobs(30);
  for (std::uint32_t j = 0; j < jobs.size(); ++j) jobs[j].priority = (j % 2) * 2;
  sched::DmdaScheduler scheduler;
  const ReuseRun run = audited_reuse_run(scheduler, config, jobs, 100);
  EXPECT_GT(run.tally.fusions, 0u);
  EXPECT_EQ(run.result.serving.cross_job_reuse_hits, 220u);
  EXPECT_EQ(run.result.serving.cross_job_reuse_bytes, 2200u);
}

TEST(ServeEngine, CrossJobReusePinClosedLoopWithGpuLoss) {
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 3;
  sim::FaultPlan plan;
  plan.gpu_losses.push_back({150.0, 1});
  sim::FaultInjector injector(plan);
  core::DartsScheduler scheduler;
  const ReuseRun run = audited_reuse_run(
      scheduler, config, std::vector<JobSpec>(30), 100, &injector);
  EXPECT_EQ(run.result.metrics.faults.gpu_losses, 1u);
  EXPECT_GT(run.tally.wiped, 0u);
  EXPECT_EQ(run.result.serving.cross_job_reuse_hits, 120u);
  EXPECT_EQ(run.result.serving.cross_job_reuse_bytes, 1200u);
}

TEST(ServeEngine, CrossJobReusePinMemoryTightReloadIsNotRecounted) {
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 2;
  sched::EagerScheduler scheduler;
  // 30 bytes per GPU: three of the template's four 10-byte data fit, so
  // the ring of tasks evicts and reloads inputs while their job runs.
  const ReuseRun run =
      audited_reuse_run(scheduler, config, std::vector<JobSpec>(30), 30);
  EXPECT_GT(run.tally.refused_recounts, 0u);
  EXPECT_EQ(run.result.serving.cross_job_reuse_hits, 116u);
  EXPECT_EQ(run.result.serving.cross_job_reuse_bytes, 1160u);
}

TEST(ServeEngine, DeadlinesScoreAgainstSubmissionTime) {
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 2;

  sched::EagerScheduler strict;
  const ServeResult missed = stream_jobs(strict, config, 10, /*deadline=*/1.0);
  EXPECT_EQ(missed.serving.deadline_misses, 10u);
  EXPECT_EQ(missed.serving.deadline_hits, 0u);
  EXPECT_DOUBLE_EQ(missed.serving.deadline_miss_rate, 1.0);

  sched::EagerScheduler lax;
  const ServeResult hit = stream_jobs(lax, config, 10, /*deadline=*/1e9);
  EXPECT_EQ(hit.serving.deadline_hits, 10u);
  EXPECT_EQ(hit.serving.deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(hit.serving.deadline_miss_rate, 0.0);
}

TEST(ServeEngine, BoundedQueueShedsOverload) {
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 1e6;  // everything arrives at once
  config.admission.max_jobs_in_flight = 1;
  config.admission.max_queue_depth = 2;
  sched::EagerScheduler scheduler;
  const ServeResult result =
      stream_jobs(scheduler, config, 10, /*deadline=*/100.0);
  EXPECT_GT(result.serving.jobs_shed, 0u);
  EXPECT_EQ(result.serving.jobs_completed + result.serving.jobs_shed, 10u);
  // A shed job with an SLO counts as a deadline miss.
  EXPECT_GE(result.serving.deadline_misses, result.serving.jobs_shed);
}

TEST(ServeEngine, IdenticalLatenciesCollapseEveryPercentile) {
  // Sequential private jobs (no sharing, one at a time) are bit-for-bit the
  // same workload, so every percentile must equal the one latency value.
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 1;
  config.share_data = false;
  sched::EagerScheduler scheduler;
  const ServeResult result = stream_jobs(scheduler, config, 8);
  EXPECT_GT(result.serving.latency_p50_us, 0.0);
  EXPECT_DOUBLE_EQ(result.serving.latency_p50_us,
                   result.serving.latency_p99_us);
  EXPECT_DOUBLE_EQ(result.serving.latency_p50_us,
                   result.serving.latency_max_us);
  EXPECT_DOUBLE_EQ(result.serving.latency_p50_us,
                   result.serving.latency_mean_us);
}

/// One streamed run with a report collector; returns the full JSON document
/// with the serving section patched in — the artifact the determinism
/// guarantee is stated over.
std::string streamed_report_json(ArrivalMode mode, bool with_faults) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  const std::vector<JobSpec> jobs(15);
  ServeConfig config;
  config.arrival.mode = mode;
  config.arrival.rate_jobs_per_s = 2e4;
  config.arrival.concurrency = 3;
  core::DartsScheduler scheduler;
  ServeEngine engine(templates, jobs, test_platform(2, 100), scheduler,
                     config);
  sim::FaultPlan plan;
  plan.gpu_losses.push_back({150.0, 1});
  sim::FaultInjector injector(plan);
  if (with_faults) engine.set_fault_injector(&injector);
  sim::RunReportCollector collector({.context = "determinism"});
  engine.add_inspector(&collector);
  const ServeResult result = engine.run();
  sim::RunReport report = collector.report();
  report.serving = result.serving;
  return sim::run_report_to_json(report);
}

TEST(ServeEngine, ReportsAreBitIdenticalAcrossRuns) {
  for (const ArrivalMode mode :
       {ArrivalMode::kPoisson, ArrivalMode::kClosedLoop}) {
    for (const bool with_faults : {false, true}) {
      const std::string first = streamed_report_json(mode, with_faults);
      const std::string second = streamed_report_json(mode, with_faults);
      EXPECT_EQ(first, second)
          << arrival_mode_name(mode) << (with_faults ? " faulted" : "");
      EXPECT_NE(first.find("\"serving\""), std::string::npos);
    }
  }
}

/// A two-tier Poisson stream's report, collected by hand (collector,
/// engine.run(), fill_serving_report) or through run_observed with the
/// checker riding along too.
std::string tiered_stream_json(bool through_helper) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  std::vector<JobSpec> jobs(12);
  for (std::uint32_t j = 0; j < jobs.size(); ++j) jobs[j].priority = j % 2;
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 2e4;
  config.arrival.seed = 3;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy::even(2);
  sched::DmdaScheduler scheduler;
  ServeEngine engine(templates, jobs, test_platform(2, 100), scheduler,
                     config);
  if (through_helper) {
    return sim::run_report_to_json(
        run_observed(engine,
                     {.check = true, .collect = true, .context = "tiered"})
            .report);
  }
  sim::RunReportCollector collector(
      {.context = "tiered", .collect_trace = false});
  engine.add_inspector(&collector);
  const ServeResult result = engine.run();
  sim::RunReport report = collector.report();
  fill_serving_report(report, result);
  return sim::run_report_to_json(report);
}

TEST(ObservedRun, ServedReportMatchesTheHandWrittenSequence) {
  const std::string by_hand = tiered_stream_json(false);
  EXPECT_EQ(tiered_stream_json(true), by_hand);
  EXPECT_NE(by_hand.find("\"slo\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(by_hand.find("\"serving\":{\"enabled\":true"),
            std::string::npos);
}

TEST(ObservedRunDeathTest, UnwritableReportPathExitsOne) {
  RunOutputs outputs(testing::TempDir() + "/no-such-dir/report.json");
  outputs.keep(sim::RunReport{});
  EXPECT_EXIT(outputs.write("unwritable"), testing::ExitedWithCode(1),
              "failed to write run report");
}

/// Streamed run under a permanent GPU loss with checkpointing and hot-data
/// replication armed — serialized report for the determinism guarantee.
std::string checkpointed_loss_report_json(const SchedulerFactory& factory) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  const std::vector<JobSpec> jobs(15);
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 3;
  config.engine.checkpoint_interval_us = 2.0;
  config.engine.replicate_hot = true;
  const std::unique_ptr<core::Scheduler> scheduler = factory();
  ServeEngine engine(templates, jobs, test_platform(2, 100), *scheduler,
                     config);
  sim::FaultPlan plan;
  plan.gpu_losses.push_back({150.0, 1});
  sim::FaultInjector injector(plan);
  engine.set_fault_injector(&injector);
  sim::InvariantChecker checker({.fail_fast = false});
  sim::RunReportCollector collector({.context = "checkpointed-loss"});
  engine.add_inspector(&checker);
  engine.add_inspector(&collector);
  const ServeResult result = engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  sim::RunReport report = collector.report();
  report.serving = result.serving;
  return sim::run_report_to_json(report);
}

TEST(ServeEngine, CheckpointedGpuLossIsBitIdenticalAndCheckerClean) {
  for (const auto& [name, factory] : schedulers()) {
    const std::string first = checkpointed_loss_report_json(factory);
    const std::string second = checkpointed_loss_report_json(factory);
    EXPECT_EQ(first, second) << name;
    EXPECT_NE(first.find("\"checkpoints\""), std::string::npos) << name;
    EXPECT_NE(first.find("\"replicas\""), std::string::npos) << name;
  }
}

TEST(ServeEngine, WatchdogDiagnosticNamesInFlightJobs) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  const std::vector<JobSpec> jobs(10);
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 4;
  config.engine.max_events = 25;
  sched::EagerScheduler scheduler;
  ServeEngine engine(templates, jobs, test_platform(2, 100), scheduler,
                     config);
  try {
    (void)engine.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const sim::BudgetExceededError& error) {
    EXPECT_NE(std::string(error.what()).find("jobs in flight"),
              std::string::npos)
        << error.what();
  }
}

TEST(ServeEngine, SimTimeBudgetDiagnosticNamesInFlightJobs) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  const std::vector<JobSpec> jobs(10);
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 4;
  config.engine.max_sim_time_us = 40.0;
  sched::EagerScheduler scheduler;
  ServeEngine engine(templates, jobs, test_platform(2, 100), scheduler,
                     config);
  try {
    (void)engine.run();
    FAIL() << "expected BudgetExceededError";
  } catch (const sim::BudgetExceededError& error) {
    EXPECT_NE(std::string(error.what()).find("jobs in flight"),
              std::string::npos)
        << error.what();
  }
}

TEST(ServeEngine, GpuLossAdoptionsAttributeEveryReclaimedTask) {
  const std::vector<core::TaskGraph> templates = {make_template()};
  const std::vector<JobSpec> jobs(20);
  ServeConfig config;
  config.arrival.mode = ArrivalMode::kClosedLoop;
  config.arrival.concurrency = 3;
  sched::EagerScheduler scheduler;
  ServeEngine engine(templates, jobs, test_platform(2, 100), scheduler,
                     config);
  sim::FaultPlan plan;
  plan.gpu_losses.push_back({120.0, 1});
  sim::FaultInjector injector(plan);
  engine.set_fault_injector(&injector);
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  sim::RunReportCollector collector({.context = "adoption"});
  engine.add_inspector(&collector);

  const ServeResult result = engine.run();
  ASSERT_TRUE(checker.ok()) << checker.report().error;
  EXPECT_EQ(result.serving.jobs_completed, 20u);

  const sim::RunReport report = collector.report();
  ASSERT_GT(result.metrics.faults.tasks_reclaimed, 0u);
  // Every reclaimed task that re-ran names the survivor that absorbed it.
  EXPECT_EQ(report.faults.adoptions.size(),
            result.metrics.faults.tasks_reclaimed);
  for (const auto& adoption : report.faults.adoptions) {
    EXPECT_EQ(adoption.from_gpu, 1u);
    EXPECT_EQ(adoption.to_gpu, 0u);
    EXPECT_LT(adoption.task, templates[0].num_tasks() * 20);
  }
}

}  // namespace
}  // namespace mg::serve
