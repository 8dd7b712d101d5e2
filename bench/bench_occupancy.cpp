// bench_occupancy — tracked perf baseline for the GPU-sharing engine path.
//
// Runs one fixed, deterministic occupancy-sharing serving scenario (four
// GPUs, Poisson burst of warp-annotated matmul jobs co-scheduled at
// threshold 1.0) and emits BENCH_occupancy.json: simulation events
// processed, wall seconds, events/sec, peak RSS and the co-run pair count.
// CI runs it every push and uploads the JSON next to BENCH_autoscale.json,
// so a slowdown in the per-GPU running-set bookkeeping (or a memory
// blow-up in the governor) shows as a step in the series. The scenario is
// pinned — flags exist for local experiments, but the tracked numbers come
// from the defaults.
//
//   ./bench_occupancy --out=BENCH_occupancy.json
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sched/dmda.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine_guard.hpp"
#include "sim/errors.hpp"
#include "sim/run_report.hpp"
#include "util/flags.hpp"
#include "workloads/matmul2d.hpp"

namespace {

/// Peak resident set in MB from /proc/self/status (VmHWM); 0.0 where the
/// proc filesystem is unavailable (non-Linux).
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kb);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "bench_occupancy: tracked perf baseline — one pinned GPU-sharing "
      "serving run, emitting events/sec and peak RSS as JSON");
  flags.define_string("out", "BENCH_occupancy.json", "output JSON path")
      .define_int("jobs", 120, "jobs in the burst", /*min_value=*/1)
      .define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("gpus", 4, "GPUs", /*min_value=*/1)
      .define_double("threshold", 1.0, "sharing admission threshold")
      .define_int("repeat", 3, "timed repetitions; fastest wall time wins");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n")),
       .derive_warps = true}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("jobs"));
  std::vector<serve::JobSpec> jobs(num_jobs);

  core::Platform platform = core::make_v100_platform(
      static_cast<std::uint32_t>(flags.get_int("gpus")), 200 * core::kMB);

  std::uint64_t events = 0;
  std::uint64_t co_run_pairs = 0;
  double best_wall_s = 0.0;
  const int repeat = static_cast<int>(flags.get_int("repeat"));
  for (int rep = 0; rep < repeat; ++rep) {
    serve::ServeConfig config;
    config.arrival.mode = serve::ArrivalMode::kPoisson;
    config.arrival.rate_jobs_per_s = 500.0;
    config.arrival.seed = 42;
    config.admission.max_jobs_in_flight = 8;
    config.engine.seed = 42;
    config.engine.occupancy_threshold = flags.get_double("threshold");

    sched::DmdaScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, platform, scheduler, config);
    sim::RunReportCollector collector(
        {.context = "bench_occupancy", .collect_trace = false});
    engine.add_inspector(&collector);
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)engine.run();
    } catch (const sim::EngineError& error) {
      sim::exit_engine_failure("bench_occupancy", error);
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t run_events =
        engine.engine().event_queue().events_processed();
    if (rep == 0) {
      events = run_events;
      co_run_pairs = collector.report().occupancy.co_run_pairs;
    } else if (events != run_events) {
      std::fprintf(stderr,
                   "bench_occupancy: nondeterministic event count (%llu vs "
                   "%llu)\n",
                   static_cast<unsigned long long>(events),
                   static_cast<unsigned long long>(run_events));
      return 1;
    }
    if (rep == 0 || wall_s < best_wall_s) best_wall_s = wall_s;
  }

  const double events_per_sec =
      best_wall_s > 0.0 ? static_cast<double>(events) / best_wall_s : 0.0;
  const double rss_mb = peak_rss_mb();

  const std::string path = flags.get_string("out");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"occupancy\",\"events\":%llu,"
               "\"wall_s\":%.6f,\"events_per_sec\":%.0f,"
               "\"peak_rss_mb\":%.1f,\"co_run_pairs\":%llu}\n",
               static_cast<unsigned long long>(events), best_wall_s,
               events_per_sec, rss_mb,
               static_cast<unsigned long long>(co_run_pairs));
  std::fclose(out);
  std::printf("bench_occupancy: %llu events in %.3f s (%.0f events/s), "
              "%llu co-run pairs, peak RSS %.1f MB -> %s\n",
              static_cast<unsigned long long>(events), best_wall_s,
              events_per_sec,
              static_cast<unsigned long long>(co_run_pairs), rss_mb,
              path.c_str());
  return 0;
}
