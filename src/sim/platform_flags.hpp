// Shared engine flag blocks for the driver binaries (memsched_run,
// memsched_serve and the figure harness's bench::add_standard_flags), so
// every binary spells and checks them the same way (docs/CLI.md):
//   * the platform: --gpus, --mem-mb, --nodes, --net-bandwidth,
//     --net-latency and --host-mem-mb, and the core::Platform they describe;
//   * --fault-plan, and the plan it names;
//   * recovery: --checkpoint-interval, --checkpoint-fraction and
//     --replicate-hot, the engine's proactive fault-tolerance knobs.
// A binary registers a block only if it reads every flag in it. A --nodes
// the GPUs cannot cover, or an unreadable fault plan, is a bad flag value:
// the binary exits 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "sim/fault_plan.hpp"
#include "util/flags.hpp"

namespace mg::sim {

/// Defines the block; the --gpus and --mem-mb defaults stay per binary.
inline void add_platform_flags(util::Flags& flags, std::int64_t default_gpus,
                               std::int64_t default_mem_mb) {
  flags.define_int("gpus", default_gpus, "number of GPUs (K)", /*min_value=*/1)
      .define_int("mem-mb", default_mem_mb, "usable GPU memory in MB")
      .define_int("nodes", 1,
                  "cluster nodes the GPUs are split across (1 = the paper's "
                  "single-node platform)",
                  /*min_value=*/1)
      .define_double("net-bandwidth", 12.5,
                     "inter-node network bandwidth in GB/s (used when "
                     "--nodes > 1)",
                     {.min_exclusive = true})
      .define_double("net-latency", 25.0,
                     "inter-node network latency in us (used when "
                     "--nodes > 1)")
      .define_int("host-mem-mb", 0,
                  "per-node host cache of remote data in MB (0 = unbounded; "
                  "used when --nodes > 1)");
}

/// The --fault-plan block; fault_plan_from_flags loads the plan.
inline void add_fault_plan_flag(util::Flags& flags) {
  flags.define_string("fault-plan", "",
                      "JSON fault plan injected into every run "
                      "(docs/ROBUSTNESS.md)");
}

/// The recovery block: EngineConfig's checkpoint_* and replicate_hot.
inline void add_recovery_flags(util::Flags& flags) {
  flags
      .define_double("checkpoint-interval", 0.0,
                     "checkpoint task progress every N simulated us of "
                     "compute (0 = off)")
      .define_double("checkpoint-fraction", 0.0,
                     "checkpoint task progress every given fraction of each "
                     "task (0 = off; ignored when --checkpoint-interval is "
                     "set)",
                     {.below = 1.0})
      .define_bool("replicate-hot", false,
                   "keep a second replica of hot shared data on another GPU "
                   "while the fault plan threatens GPU losses");
}

/// The V100 platform the block describes. Non-empty `speeds` give per-GPU
/// GFlop/s and with them the GPU count. Exits 2 when --nodes exceeds the
/// GPU count, as every node needs a GPU.
[[nodiscard]] inline core::Platform platform_from_flags(
    const util::Flags& flags, std::vector<double> speeds = {}) {
  core::Platform platform = core::make_v100_platform(
      static_cast<std::uint32_t>(flags.get_int("gpus")),
      static_cast<std::uint64_t>(flags.get_int("mem-mb")) * core::kMB);
  if (!speeds.empty()) {
    platform.num_gpus = static_cast<std::uint32_t>(speeds.size());
    platform.gpu_gflops_per_device = std::move(speeds);
  }
  const std::int64_t nodes = flags.get_int("nodes");
  if (nodes > platform.num_gpus) {
    std::fprintf(stderr, "bad value for --nodes: '%lld' (at most %u, the GPU "
                 "count)\n",
                 static_cast<long long>(nodes), platform.num_gpus);
    std::exit(2);
  }
  platform.num_nodes = static_cast<std::uint32_t>(nodes);
  platform.net_bandwidth_bytes_per_s = flags.get_double("net-bandwidth") * 1e9;
  platform.net_latency_us = flags.get_double("net-latency");
  platform.host_memory_bytes =
      static_cast<std::uint64_t>(flags.get_int("host-mem-mb")) * core::kMB;
  return platform;
}

/// The plan in the --fault-plan file, or nullopt without the flag. Exits 2
/// when the file cannot be read or parsed.
[[nodiscard]] inline std::optional<FaultPlan> fault_plan_from_flags(
    const util::Flags& flags) {
  const std::string& path = flags.get_string("fault-plan");
  if (path.empty()) return std::nullopt;
  std::string error;
  std::optional<FaultPlan> plan = load_fault_plan_file(path, &error);
  if (!plan.has_value()) {
    std::fprintf(stderr, "bad value for --fault-plan: %s\n", error.c_str());
    std::exit(2);
  }
  return plan;
}

}  // namespace mg::sim
