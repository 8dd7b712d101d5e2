#include "tracer.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>

namespace perfbench {

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGen: return "workloads.gen";
    case Layer::kEngineBuild: return "sim.engine.build";
    case Layer::kServeBuild: return "serve.build";
    case Layer::kRun: return "sim.engine.run";
    case Layer::kPrepare: return "sched.prepare";
    case Layer::kPop: return "sched.pop";
    case Layer::kNotify: return "sched.notify";
    case Layer::kEvictChoose: return "evict.choose";
    case Layer::kEvictHook: return "evict.hook";
    case Layer::kCheck: return "check.on_event";
    case Layer::kReport: return "report.collect";
    case Layer::kToJson: return "report.to_json";
    case Layer::kRoot: return "root";
  }
  return "?";
}

void DurationHistogram::add(std::int64_t ns) {
  const std::uint64_t value = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  std::size_t bucket = 0;
  if (value < 64) {
    bucket = value;
  } else {
    const auto octave = static_cast<std::size_t>(std::bit_width(value) - 1);
    const auto sub = static_cast<std::size_t>((value >> (octave - 5)) & 31);
    bucket = 64 + (octave - 6) * 32 + sub;
  }
  ++counts_[bucket];
  ++total_;
}

double DurationHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
    seen += counts_[bucket];
    if (seen < rank || counts_[bucket] == 0) continue;
    if (bucket < 64) return static_cast<double>(bucket);
    const std::size_t octave = (bucket - 64) / 32 + 6;
    const std::size_t sub = (bucket - 64) % 32;
    const double width = std::ldexp(1.0, static_cast<int>(octave) - 5);
    return static_cast<double>(32 + sub) * width + width / 2.0;
  }
  return 0.0;
}

void Tracer::begin(Layer layer) {
  if (depth_ == stack_.size()) std::abort();  // spans nest a few levels deep
  stack_[depth_++] = Frame{layer, now_ns(), 0};
}

std::int64_t Tracer::end() {
  const std::int64_t stop = now_ns();
  const Frame frame = stack_[--depth_];
  const std::int64_t duration = stop - frame.start_ns;
  const Layer parent = depth_ > 0 ? stack_[depth_ - 1].layer : Layer::kRoot;
  LayerStats& stats = stats_[index(frame.layer)][index(parent)];
  ++stats.calls;
  stats.total_ns += duration;
  stats.self_ns += duration - frame.child_ns;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
  return duration;
}

void Tracer::end_pop(bool returned_task) {
  pop_latency_.add(end());
  if (returned_task) ++pop_hits_;
}

LayerStats Tracer::total(Layer layer) const {
  LayerStats sum;
  for (const LayerStats& stats : stats_[index(layer)]) {
    sum.calls += stats.calls;
    sum.total_ns += stats.total_ns;
    sum.self_ns += stats.self_ns;
  }
  return sum;
}

double Section::stop() {
  if (seconds_ < 0.0) {
    seconds_ = static_cast<double>(now_ns() - start_ns_) / 1e9;
    if (tracer_ != nullptr) (void)tracer_->end();
  }
  return seconds_;
}

}  // namespace perfbench
