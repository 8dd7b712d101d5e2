// memsched_serve — streamed serving driver.
//
// Streams a sequence of jobs (each one instance of a workload template)
// through the serving subsystem and prints the throughput/latency summary:
// arrival process, admission, deadlines, cross-job data reuse. The serving
// counterpart of memsched_run's single-batch simulation.
//
//   ./memsched_serve --arrival=poisson --rate=100 --jobs=50
//   ./memsched_serve --arrival=closed-loop --concurrency=4 --deadline-us=50000
//   ./memsched_serve --scheduler=eager --no-share --run-report=serve.json
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/locality.hpp"
#include "core/darts.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "serve/autoscale_flags.hpp"
#include "serve/observed_run.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine_guard.hpp"
#include "sim/fault_injector.hpp"
#include "sim/platform_flags.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mg;

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& name) {
  if (name == "eager") return std::make_unique<sched::EagerScheduler>();
  if (name == "dmdar") return std::make_unique<sched::DmdaScheduler>();
  if (name == "mhfp") return std::make_unique<sched::HfpScheduler>();
  if (name == "darts+luf") return std::make_unique<core::DartsScheduler>();
  if (name == "locality") return std::make_unique<cluster::LocalityScheduler>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "memsched_serve: stream jobs through the serving subsystem.\n"
      "schedulers: eager, dmdar, mhfp, darts+luf, locality");
  flags.define_string("workload", "matmul2d", "job template: matmul2d, "
                      "cholesky")
      .define_int("n", 8, "template dimension (N)", /*min_value=*/1)
      .define_string("scheduler", "darts+luf", "scheduling policy")
      .define_int("seed", 42, "RNG seed (arrivals and engine)")
      .define_string("arrival", "poisson", "poisson | closed-loop")
      .define_double("rate", 100.0, "Poisson arrival rate (jobs/s)",
                     {.min_exclusive = true})
      .define_int("concurrency", 4, "closed-loop client count")
      .define_int("jobs", 50, "number of jobs streamed", /*min_value=*/1)
      .define_double("deadline-us", 0.0,
                     "per-job latency SLO in µs (0 = none)")
      .define_int("max-queue", 0,
                  "admission queue bound; jobs past it are shed (0 = "
                  "unbounded)")
      .define_bool("no-share", false,
                   "ablation: no cross-job data sharing")
      .define_bool("check", true,
                   "run the online InvariantChecker over the stream")
      .define_string("run-report", "",
                     "write the schema-v7 JSON run report (with serving "
                     "section) to this path");
  serve::add_autoscale_flags(flags);
  sim::add_platform_flags(flags, /*default_gpus=*/2, /*default_mem_mb=*/500);
  sim::add_fault_plan_flag(flags);
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto arrival = serve::parse_arrival_mode(flags.get_string("arrival"));
  if (!arrival.has_value()) {
    std::fprintf(stderr, "bad value for --arrival: '%s'\n",
                 flags.get_string("arrival").c_str());
    return 2;
  }
  auto scheduler = make_scheduler(flags.get_string("scheduler"));
  if (scheduler == nullptr) {
    std::fprintf(stderr, "bad value for --scheduler: '%s'\n",
                 flags.get_string("scheduler").c_str());
    return 2;
  }

  std::vector<core::TaskGraph> templates;
  const std::uint32_t n = static_cast<std::uint32_t>(flags.get_int("n"));
  if (flags.get_string("workload") == "matmul2d") {
    templates.push_back(work::make_matmul_2d({.n = n}));
  } else if (flags.get_string("workload") == "cholesky") {
    templates.push_back(work::make_cholesky_tasks({.n = n}));
  } else {
    std::fprintf(stderr, "bad value for --workload: '%s'\n",
                 flags.get_string("workload").c_str());
    return 2;
  }

  const core::Platform platform = sim::platform_from_flags(flags);
  if (!sim::mem_mb_holds_every_task(flags.get_int("mem-mb"),
                                    platform.gpu_memory_bytes, templates)) {
    return 2;
  }

  std::vector<serve::JobSpec> jobs(
      static_cast<std::size_t>(flags.get_int("jobs")));
  for (serve::JobSpec& job : jobs) {
    job.deadline_us = flags.get_double("deadline-us");
  }

  serve::ServeConfig config;
  config.arrival.mode = *arrival;
  config.arrival.rate_jobs_per_s = flags.get_double("rate");
  config.arrival.concurrency =
      static_cast<std::uint32_t>(flags.get_int("concurrency"));
  config.arrival.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.admission.max_queue_depth =
      static_cast<std::uint32_t>(flags.get_int("max-queue"));
  config.share_data = !flags.get_bool("no-share");
  config.engine.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.autoscale = serve::autoscale_from_flags(flags, platform);
  config.engine.initial_active_nodes = serve::autoscale_initial_nodes(flags);

  serve::ServeEngine engine(templates, jobs, platform, *scheduler, config);

  std::unique_ptr<sim::FaultInjector> injector;
  if (auto plan = sim::fault_plan_from_flags(flags)) {
    injector = std::make_unique<sim::FaultInjector>(std::move(*plan));
    engine.set_fault_injector(injector.get());
  }

  serve::RunOutputs outputs(flags.get_string("run-report"));
  auto run = serve::run_observed(engine, {.check = flags.get_bool("check"),
                                          .collect = outputs.reporting(),
                                          .context = "memsched_serve"});
  const serve::ServeResult& result = run.result;
  const sim::RunReport::Serving& serving = result.serving;

  std::printf("template   : %s N=%u (%u tasks/job, %.0f MB working set)\n",
              flags.get_string("workload").c_str(), n,
              templates[0].num_tasks(),
              static_cast<double>(templates[0].working_set_bytes()) / 1e6);
  if (platform.is_cluster()) {
    std::printf("scheduler  : %s on %u GPU(s) over %u nodes "
                "(net %.1f GB/s + %.0f us)\n",
                std::string(scheduler->name()).c_str(), platform.num_gpus,
                platform.num_nodes, platform.net_bandwidth_bytes_per_s / 1e9,
                platform.net_latency_us);
  } else {
    std::printf("scheduler  : %s on %u GPU(s)\n",
                std::string(scheduler->name()).c_str(), platform.num_gpus);
  }
  std::printf("arrival    : %s (%s)\n",
              std::string(serve::arrival_mode_name(*arrival)).c_str(),
              *arrival == serve::ArrivalMode::kPoisson
                  ? (util::format_double(flags.get_double("rate")) +
                     " jobs/s")
                        .c_str()
                  : (std::to_string(flags.get_int("concurrency")) +
                     " clients")
                        .c_str());
  std::printf("jobs       : %u submitted, %u completed, %u shed\n",
              serving.jobs_submitted, serving.jobs_completed,
              serving.jobs_shed);
  std::printf("throughput : %.1f jobs/s over %.2f ms\n",
              serving.throughput_jobs_per_s,
              result.metrics.makespan_us / 1e3);
  std::printf("latency    : p50 %.2f ms, p95 %.2f ms, p99 %.2f ms "
              "(mean %.2f, max %.2f)\n",
              serving.latency_p50_us / 1e3, serving.latency_p95_us / 1e3,
              serving.latency_p99_us / 1e3, serving.latency_mean_us / 1e3,
              serving.latency_max_us / 1e3);
  if (serving.deadline_hits + serving.deadline_misses > 0) {
    std::printf("deadlines  : %u hit, %u missed (%.1f%% miss rate)\n",
                serving.deadline_hits, serving.deadline_misses,
                100.0 * serving.deadline_miss_rate);
  }
  std::printf("reuse      : %.0f MB served from prior jobs' data (%llu "
              "hits)%s\n",
              static_cast<double>(serving.cross_job_reuse_bytes) / 1e6,
              static_cast<unsigned long long>(serving.cross_job_reuse_hits),
              config.share_data ? "" : " [sharing ablated]");
  std::printf("in flight  : peak %u jobs, queue peak %u\n",
              serving.peak_jobs_in_flight, serving.peak_queue_depth);
  if (config.autoscale.enabled) {
    std::printf("autoscale  : %u scale-out, %u scale-in decision(s) applied "
                "(%u node(s) serving at end)\n",
                result.scale_out_events, result.scale_in_events,
                engine.engine().active_node_count());
  }
  std::printf("transfers  : %.0f MB host, %llu loads\n",
              result.metrics.transfers_mb(),
              static_cast<unsigned long long>(result.metrics.total_loads()));
  if (injector != nullptr) {
    std::printf("faults     : %u gpu loss(es), %llu task(s) reclaimed\n",
                result.metrics.faults.gpu_losses,
                static_cast<unsigned long long>(
                    result.metrics.faults.tasks_reclaimed));
  }
  // A violation has already exited 1.
  if (flags.get_bool("check")) std::printf("invariants : ok\n");

  if (outputs.reporting()) {
    outputs.keep(std::move(run.report));
    outputs.write("memsched_serve");
    std::printf("run report : %s\n", flags.get_string("run-report").c_str());
  }
  return 0;
}
