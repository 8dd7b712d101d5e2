// Outside-in layer tracer of the benchmark.
//
// Spans wrap the calls that cross a layer boundary: the calls the benchmark
// makes itself (generators, engine construction, run(), report
// serialisation) and the calls the engine makes into the components the
// benchmark hands it (core::Scheduler, core::EvictionPolicy,
// sim::Inspector; see traced.hpp). There are millions of such calls per
// run, so spans are not kept: each one is folded on exit into per-(layer,
// parent) totals, and a layer's self time is its span minus the spans
// nested inside it. Whatever run() spends outside every wrapped call is the
// engine's own time (event queue, bus, memory manager, dependency gating,
// network and fault paths), which cannot be split from outside.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perfbench {

enum class Layer : std::uint8_t {
  kGen,          ///< workloads: generator call (includes TaskGraph build)
  kEngineBuild,  ///< sim::RuntimeEngine construction
  kServeBuild,   ///< serve::ServeEngine construction (union graph, engine)
  kRun,          ///< RuntimeEngine::run / ServeEngine::run
  kPrepare,      ///< Scheduler::prepare
  kPop,          ///< Scheduler::pop_task
  kNotify,       ///< every other Scheduler call (notify_* and queries)
  kEvictChoose,  ///< EvictionPolicy::choose_victim
  kEvictHook,    ///< EvictionPolicy::on_load / on_use / on_evict
  kCheck,        ///< InvariantChecker (every Inspector call)
  kReport,       ///< RunReportCollector (every Inspector call)
  kToJson,       ///< sim::run_report_to_json
  kRoot,         ///< parent of top-level spans; never a span itself
};
inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kRoot);

[[nodiscard]] std::string_view layer_name(Layer layer);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< summed span durations
  std::int64_t self_ns = 0;   ///< minus the spans nested inside them
};

/// Log-linear histogram of durations in ns: exact below 64 ns, then 32
/// buckets per power of two (quantiles within ~3%).
class DurationHistogram {
 public:
  void add(std::int64_t ns);
  /// Nearest-rank quantile in ns (bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 64 + 58 * 32;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

class Tracer {
 public:
  void begin(Layer layer);
  /// Closes the innermost span; returns its duration in ns.
  std::int64_t end();

  /// pop_task spans also feed the latency histogram and the hit count.
  void end_pop(bool returned_task);

  /// Spans of `layer` summed over all parents.
  [[nodiscard]] LayerStats total(Layer layer) const;
  [[nodiscard]] const LayerStats& under(Layer layer, Layer parent) const {
    return stats_[index(layer)][index(parent)];
  }

  [[nodiscard]] std::uint64_t pop_hits() const { return pop_hits_; }
  [[nodiscard]] const DurationHistogram& pop_latency() const {
    return pop_latency_;
  }

 private:
  struct Frame {
    Layer layer = Layer::kRoot;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  static constexpr std::size_t index(Layer layer) {
    return static_cast<std::size_t>(layer);
  }

  std::array<Frame, 16> stack_{};
  std::size_t depth_ = 0;
  std::array<std::array<LayerStats, kNumLayers + 1>, kNumLayers> stats_{};
  std::uint64_t pop_hits_ = 0;
  DurationHistogram pop_latency_;
};

/// RAII span that tolerates a null tracer.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) (void)tracer_->end();
  }

 private:
  Tracer* tracer_;
};

/// Times one section of the benchmark's own calls; also a span when a
/// tracer is attached.
class Section {
 public:
  Section(Tracer* tracer, Layer layer) : tracer_(tracer), start_ns_(now_ns()) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;
  ~Section() { (void)stop(); }

  /// Ends the section (idempotent); returns its duration in seconds.
  double stop();

 private:
  Tracer* tracer_;
  std::int64_t start_ns_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
