// Trace export and reuse statistics.
//
// export_chrome_trace writes the simulation trace in the Chrome tracing
// JSON format (load it at chrome://tracing or https://ui.perfetto.dev):
// one row per GPU with task execution slices, plus instant events for
// loads, peer copies and evictions.
//
// compute_reuse_stats summarizes data movement quality: how often each
// data item was (re)loaded, the reload histogram, and the reuse factor —
// the quantities behind the paper's transfer figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "sim/trace.hpp"

namespace mg::analysis {

/// The trace as Chrome tracing JSON, for write_chrome_trace.
std::string chrome_trace_json(const core::TaskGraph& graph,
                              const core::Platform& platform,
                              const sim::Trace& trace);
bool write_chrome_trace(const std::string& json, const std::string& path);

/// Writes the trace as Chrome tracing JSON. Returns false on I/O error.
bool export_chrome_trace(const core::TaskGraph& graph,
                         const core::Platform& platform,
                         const sim::Trace& trace, const std::string& path);

struct ReuseStats {
  std::uint64_t total_loads = 0;       ///< host + peer loads
  std::uint64_t distinct_data = 0;     ///< data items loaded at least once
  std::uint64_t reloads = 0;           ///< loads beyond the first per (gpu, data)
  double mean_loads_per_used_data = 0.0;
  std::uint64_t max_loads_one_data = 0;
  core::DataId most_reloaded = core::kInvalidData;

  /// histogram[k] = number of (gpu, data) pairs loaded exactly k+1 times.
  std::vector<std::uint64_t> histogram;
};

ReuseStats compute_reuse_stats(const core::TaskGraph& graph,
                               const core::Platform& platform,
                               const sim::Trace& trace);

}  // namespace mg::analysis
