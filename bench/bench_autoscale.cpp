// bench_autoscale — the repo's first tracked perf baseline.
//
// Runs one fixed, deterministic autoscaled serving scenario (multi-node
// platform, Poisson burst, scale-out + drain traffic) and emits
// BENCH_autoscale.json: simulation events processed, wall seconds,
// events/sec and peak RSS. CI runs it every push and uploads the JSON, so
// the bench trajectory finally has a point and an engine-layer slowdown
// (or a memory blow-up) shows as a step in the series. The scenario is
// pinned — flags exist for local experiments, but the tracked numbers come
// from the defaults.
//
//   ./bench_autoscale --out=BENCH_autoscale.json
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sched/hfp.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine_guard.hpp"
#include "sim/errors.hpp"
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
      "bench_autoscale: tracked perf baseline — one pinned autoscaled "
      "serving run, emitting events/sec and peak RSS as JSON");
  flags.define_string("out", "BENCH_autoscale.json", "output JSON path")
      .define_int("jobs", 120, "jobs in the burst", /*min_value=*/1)
      .define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("gpus", 8, "GPUs (spread over --nodes)", /*min_value=*/1)
      .define_int("nodes", 4, "cluster nodes")
      .define_int("repeat", 3, "timed repetitions; fastest wall time wins");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n"))}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("jobs"));
  std::vector<serve::JobSpec> jobs(num_jobs);
  for (serve::JobSpec& job : jobs) job.deadline_us = 100'000.0;

  core::Platform platform = core::make_v100_platform(
      static_cast<std::uint32_t>(flags.get_int("gpus")), 200 * core::kMB);
  platform.num_nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  platform.host_memory_bytes = 800 * core::kMB;

  std::uint64_t events = 0;
  double best_wall_s = 0.0;
  const int repeat = static_cast<int>(flags.get_int("repeat"));
  for (int rep = 0; rep < repeat; ++rep) {
    serve::ServeConfig config;
    config.arrival.mode = serve::ArrivalMode::kPoisson;
    config.arrival.rate_jobs_per_s = 500.0;
    config.arrival.seed = 42;
    config.admission.max_jobs_in_flight = 6;
    config.admission.max_queue_depth = 6;
    config.engine.seed = 42;
    config.engine.initial_active_nodes = 1;
    config.autoscale.enabled = true;
    config.autoscale.scale_out_queue = 2;
    config.autoscale.check_interval_us = 10'000.0;
    config.autoscale.cooldown_us = 50'000.0;

    sched::HfpScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, platform, scheduler, config);
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)engine.run();
    } catch (const sim::EngineError& error) {
      sim::exit_engine_failure("bench_autoscale", error);
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t run_events =
        engine.engine().event_queue().events_processed();
    if (rep == 0) {
      events = run_events;
    } else if (events != run_events) {
      std::fprintf(stderr,
                   "bench_autoscale: nondeterministic event count (%llu vs "
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
               "{\"bench\":\"autoscale\",\"events\":%llu,"
               "\"wall_s\":%.6f,\"events_per_sec\":%.0f,"
               "\"peak_rss_mb\":%.1f}\n",
               static_cast<unsigned long long>(events), best_wall_s,
               events_per_sec, rss_mb);
  std::fclose(out);
  std::printf("bench_autoscale: %llu events in %.3f s (%.0f events/s), "
              "peak RSS %.1f MB -> %s\n",
              static_cast<unsigned long long>(events), best_wall_s,
              events_per_sec, rss_mb, path.c_str());
  return 0;
}
