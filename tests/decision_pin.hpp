// Decision pins: a whole run reduced to a fingerprint of its recorded trace
// plus its load and eviction counts and makespan. A change in which task a
// scheduler pops where, or which victim an eviction picks, moves at least
// one of them, so a table of pinned runs holds a rewrite to the exact
// decisions of the code it replaces.
#pragma once

#include <cstdint>

#include "core/metrics.hpp"
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
