// Shared --autoscale-* flag block for the serving drivers
// (memsched_serve, fig_throughput, abl_autoscale): one place defines the
// flags and translates them into the AutoscalerConfig +
// EngineConfig::initial_active_nodes pair, so every binary spells the
// elastic-serving knobs identically (docs/CLI.md). --autoscale on a
// single-node platform is a bad flag value: the binary exits 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "cluster/autoscaler.hpp"
#include "core/platform.hpp"
#include "util/flags.hpp"

namespace mg::serve {

inline void add_autoscale_flags(util::Flags& flags) {
  flags
      .define_bool("autoscale", false,
                   "enable elastic autoscaling (needs --nodes >= 2): drain/"
                   "join whole nodes while serving")
      .define_int("autoscale-initial-nodes", 0,
                  "nodes serving at t=0; the rest start inactive and join "
                  "on scale-out (0 = all nodes)")
      .define_int("autoscale-min-nodes", 1,
                  "never drain below this many active nodes")
      .define_int("autoscale-max-nodes", 0,
                  "never join above this many active nodes (0 = all)")
      .define_int("autoscale-out-queue", 4,
                  "admission queue depth at/above which scale-out pressure "
                  "counts")
      .define_int("autoscale-in-queue", 0,
                  "queue depth at/below which (with idle nodes) scale-in "
                  "pressure counts")
      .define_double("autoscale-interval-us", 50'000.0,
                     "autoscaler sampling period in µs",
                     {.min_exclusive = true})
      .define_double("autoscale-cooldown-us", 200'000.0,
                     "minimum µs between two scale decisions")
      .define_int("autoscale-hysteresis", 2,
                  "consecutive breached samples required before a decision");
}

/// The policy config the flag block describes (enabled == --autoscale).
/// Exits 2 when --autoscale is set and `platform` has a single node.
[[nodiscard]] inline cluster::AutoscalerConfig autoscale_from_flags(
    const util::Flags& flags, const core::Platform& platform) {
  cluster::AutoscalerConfig config;
  config.enabled = flags.get_bool("autoscale");
  if (config.enabled && !platform.is_cluster()) {
    std::fprintf(stderr, "bad value for --autoscale: needs --nodes >= 2\n");
    std::exit(2);
  }
  config.min_nodes =
      static_cast<std::uint32_t>(flags.get_int("autoscale-min-nodes"));
  config.max_nodes =
      static_cast<std::uint32_t>(flags.get_int("autoscale-max-nodes"));
  config.scale_out_queue =
      static_cast<std::uint32_t>(flags.get_int("autoscale-out-queue"));
  config.scale_in_queue =
      static_cast<std::uint32_t>(flags.get_int("autoscale-in-queue"));
  config.check_interval_us = flags.get_double("autoscale-interval-us");
  config.cooldown_us = flags.get_double("autoscale-cooldown-us");
  config.hysteresis_checks =
      static_cast<std::uint32_t>(flags.get_int("autoscale-hysteresis"));
  return config;
}

/// EngineConfig::initial_active_nodes from the flag block.
[[nodiscard]] inline std::uint32_t autoscale_initial_nodes(
    const util::Flags& flags) {
  return static_cast<std::uint32_t>(flags.get_int("autoscale-initial-nodes"));
}

}  // namespace mg::serve
