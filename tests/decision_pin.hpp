// Decision pins: a whole run reduced to a fingerprint of its recorded trace
// plus its load and eviction counts and makespan. A change in which task a
// scheduler pops where, or which victim an eviction picks, moves at least
// one of them, so a table of pinned runs holds a rewrite to the exact
// decisions of the code it replaces. The same FNV-1a helpers fingerprint a
// built graph's arrays, which pins a rewrite of a graph builder.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "core/metrics.hpp"
#include "core/task_graph.hpp"
#include "sim/trace.hpp"

namespace mg::test {

/// Outcome of one pinned run.
struct Pin {
  std::uint64_t trace_hash = 0;
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
  double makespan_us = 0.0;
};

/// Folds the low `bytes` bytes of `value` into a 64-bit FNV-1a hash.
inline void fnv1a_mix(std::uint64_t& hash, std::uint32_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
}

/// Folds all eight bytes of `value` into the hash, low word first.
inline void fnv1a_mix64(std::uint64_t& hash, std::uint64_t value) {
  fnv1a_mix(hash, static_cast<std::uint32_t>(value), 4);
  fnv1a_mix(hash, static_cast<std::uint32_t>(value >> 32), 4);
}

/// Folds a length-prefixed id list into the hash.
inline void fnv1a_mix_ids(std::uint64_t& hash,
                          std::span<const std::uint32_t> ids) {
  fnv1a_mix(hash, static_cast<std::uint32_t>(ids.size()), 4);
  for (const std::uint32_t id : ids) fnv1a_mix(hash, id, 4);
}

/// 64-bit FNV-1a over a graph's base arrays: every task's inputs, flops,
/// output bytes and warps, every data item's consumers and size, whether
/// outputs and warps are stored at all, the total flops and the working set.
/// Labels and dependency arrays are left out.
inline std::uint64_t graph_arrays_fingerprint(const core::TaskGraph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (core::TaskId task = 0; task < graph.num_tasks(); ++task) {
    fnv1a_mix_ids(hash, graph.inputs(task));
    fnv1a_mix64(hash, std::bit_cast<std::uint64_t>(graph.task_flops(task)));
    fnv1a_mix64(hash, graph.task_output_bytes(task));
    fnv1a_mix(hash, graph.task_warps(task), 4);
  }
  for (core::DataId data = 0; data < graph.num_data(); ++data) {
    fnv1a_mix_ids(hash, graph.consumers(data));
    fnv1a_mix64(hash, graph.data_size(data));
  }
  fnv1a_mix(hash, graph.has_outputs() ? 1u : 0u, 1);
  fnv1a_mix(hash, graph.has_warps() ? 1u : 0u, 1);
  fnv1a_mix64(hash, std::bit_cast<std::uint64_t>(graph.total_flops()));
  fnv1a_mix64(hash, graph.working_set_bytes());
  return hash;
}

/// 64-bit FNV-1a over the (kind, gpu, id) sequence of a recorded trace.
inline std::uint64_t trace_fingerprint(const sim::Trace& trace) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const sim::TraceEvent& event : trace.events) {
    fnv1a_mix(hash, static_cast<std::uint32_t>(event.kind), 1);
    fnv1a_mix(hash, event.gpu, 4);
    fnv1a_mix(hash, event.id, 4);
  }
  return hash;
}

inline Pin pin_of(const sim::Trace& trace, const core::RunMetrics& metrics) {
  return {trace_fingerprint(trace), metrics.total_loads(),
          metrics.total_evictions(), metrics.makespan_us};
}

}  // namespace mg::test
