// Shared CLI handling of engine failures.
//
// Every driver binary follows the same convention: an EngineError
// (deadlock, watchdog budget, invalid fault plan) prints one diagnostic
// line to stderr and exits with status 3 — distinct from a flag error (2:
// an unknown flag, or a bad, missing or unreadable value) and a failed
// check (1), so scripts and CI can tell a wedged schedule from a mistyped
// flag. This header is the single definition of that behaviour.
// It also checks, before any engine exists, the one engine precondition a
// flag decides alone: --mem-mb must hold the largest task footprint. A value
// below it is a bad flag value (exit 2), not an engine abort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "core/task_graph.hpp"
#include "sim/errors.hpp"

namespace mg::sim {

[[noreturn]] inline void exit_engine_failure(const std::string& label,
                                             const EngineError& error) {
  std::fprintf(stderr, "engine failure in %s: %s\n", label.c_str(),
               error.what());
  std::exit(3);
}

/// True if `gpu_memory_bytes`, given as --mem-mb=`mem_mb`, holds the
/// largest task footprint of `graphs` (a run's graph, or a streamed run's
/// templates, whose tasks the union graph copies). Otherwise prints both
/// values and returns false; the caller exits 2.
inline bool mem_mb_holds_every_task(std::int64_t mem_mb,
                                    std::uint64_t gpu_memory_bytes,
                                    std::span<const core::TaskGraph> graphs) {
  std::uint64_t footprint = 0;
  for (const core::TaskGraph& graph : graphs) {
    footprint = std::max(footprint, graph.max_task_footprint());
  }
  if (footprint <= gpu_memory_bytes) return true;
  std::fprintf(stderr,
               "bad value for --mem-mb: '%lld' (%llu bytes) is below the "
               "largest task footprint, %llu bytes\n",
               static_cast<long long>(mem_mb),
               static_cast<unsigned long long>(gpu_memory_bytes),
               static_cast<unsigned long long>(footprint));
  return false;
}

/// Runs the engine (a RuntimeEngine or a serve::ServeEngine) to completion;
/// on EngineError, prints the diagnostic labelled `label` and exits with
/// status 3.
template <class Engine>
auto run_engine_or_exit(Engine& engine, const std::string& label) {
  try {
    return engine.run();
  } catch (const EngineError& error) {
    exit_engine_failure(label, error);
  }
}

}  // namespace mg::sim
