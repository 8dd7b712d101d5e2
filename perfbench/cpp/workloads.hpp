// The benchmark's four pinned workloads. One call runs one repetition:
// generate the inputs, build the engine, run it to completion and check the
// outputs, timing each step from outside the program.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "traced.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Simulated outcome of one repetition. Every field must repeat exactly
/// across repetitions and between traced and untraced runs.
struct SimOutcome {
  double flops = 0.0;        ///< flops of the completed work
  double makespan_us = 0.0;  ///< summed over the workload's graphs
  std::uint64_t bytes_loaded = 0;  ///< host -> GPU
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
  std::uint64_t events = 0;  ///< engine events processed
  /// Simulated latency per job, submission to completion. A batch graph is
  /// one job submitted at t=0, so its latency is its makespan.
  std::vector<double> latencies_us;
  std::vector<double> high_tier_latencies_us;
  std::uint64_t deadline_jobs = 0;  ///< jobs with a deadline (shed count)
  std::uint64_t deadline_hits = 0;
  std::uint64_t jobs_fused = 0;
  std::uint64_t fetch_timeouts = 0;
  std::uint64_t hedged_fetches = 0;
  std::uint64_t eviction_vetoes = 0;
  std::uint64_t jobs_shed = 0;

  bool operator==(const SimOutcome&) const = default;
};

struct RepResult {
  double setup_s = 0.0;  ///< host: generate inputs + construct the engine
  double wall_s = 0.0;   ///< host: run(), scheduler prepare included
  SimOutcome sim;
  std::vector<std::string> failures;  ///< output checks that failed

  // Filled by traced runs only.
  double connectivity_mb = 0.0;  ///< hMETIS partitions' (λ-1) volume
  std::uint64_t json_bytes = 0;  ///< serialised run report
  std::uint64_t check_events = 0;
};

struct RepOptions {
  /// Traced run when set: the engine sees the timing wrappers.
  Tracer* tracer = nullptr;
  /// Test seam: wraps the workload's scheduler; in a traced run the wrapper
  /// sits between the scheduler and the tracing wrapper.
  std::function<std::unique_ptr<TracedScheduler>(core::Scheduler&)> wrap;
};

/// Names of the pinned workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// One repetition of a pinned workload; an unknown name is a failure.
[[nodiscard]] RepResult run_workload(std::string_view name, std::uint64_t seed,
                                     const RepOptions& options);

/// matmul_darts at an arbitrary size (the pinned workload uses N=285).
[[nodiscard]] RepResult run_matmul_darts(std::uint32_t n, std::uint64_t seed,
                                         const RepOptions& options);

}  // namespace perfbench
