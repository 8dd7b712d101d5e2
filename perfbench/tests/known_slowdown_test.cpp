// Known-slowdown self-check: evidence that the benchmark measures what it
// names. A fixed busy-wait added to every pop_task of a small matmul_darts
// instance must show up
//   * in the traced run, booked to sched.pop and not to the engine's own
//     time, by about calls x delay;
//   * in the untraced run's wall time, by about the same amount.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "traced.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;

constexpr std::uint32_t kN = 60;            // 3600 tasks
constexpr std::int64_t kDelayNs = 100'000;  // per pop_task call
constexpr int kReps = 3;

class SlowPopScheduler final : public perfbench::TracedScheduler {
 public:
  explicit SlowPopScheduler(mg::core::Scheduler& inner)
      : TracedScheduler(inner, nullptr) {}

  [[nodiscard]] mg::core::TaskId pop_task(
      mg::core::GpuId gpu, const mg::core::MemoryView& memory) override {
    const std::int64_t until = perfbench::now_ns() + kDelayNs;
    while (perfbench::now_ns() < until) {
    }
    return TracedScheduler::pop_task(gpu, memory);
  }
};

perfbench::RepOptions options(bool slowed, perfbench::Tracer* tracer) {
  perfbench::RepOptions result;
  result.tracer = tracer;
  if (slowed) {
    result.wrap = [](mg::core::Scheduler& inner) {
      return std::make_unique<SlowPopScheduler>(inner);
    };
  }
  return result;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct Measured {
  double wall_s = 0.0;      ///< untraced run()
  double pop_s = 0.0;       ///< traced sched.pop
  double self_s = 0.0;      ///< traced sim.engine.self_s
  std::uint64_t pops = 0;
  perfbench::SimOutcome sim;
};

Measured measure(bool slowed) {
  std::vector<double> wall;
  std::vector<double> pop;
  std::vector<double> self;
  Measured out;
  for (int rep = 0; rep < kReps; ++rep) {
    const perfbench::RepResult untraced =
        perfbench::run_matmul_darts(kN, 1, options(slowed, nullptr));
    EXPECT_TRUE(untraced.failures.empty());
    wall.push_back(untraced.wall_s);

    perfbench::Tracer tracer;
    const perfbench::RepResult traced =
        perfbench::run_matmul_darts(kN, 1, options(slowed, &tracer));
    EXPECT_TRUE(traced.failures.empty());
    EXPECT_EQ(traced.sim, untraced.sim);
    pop.push_back(static_cast<double>(tracer.total(Layer::kPop).total_ns) / 1e9);
    self.push_back(static_cast<double>(tracer.total(Layer::kRun).self_ns) / 1e9);
    out.pops = tracer.total(Layer::kPop).calls;
    out.sim = traced.sim;
  }
  out.wall_s = median(wall);
  out.pop_s = median(pop);
  out.self_s = median(self);
  return out;
}

TEST(KnownSlowdown, PopDelayIsBookedToSchedPopAndShowsInWallTime) {
  const Measured plain = measure(false);
  const Measured slowed = measure(true);

  // The delay changes host time only: the simulation is the same.
  ASSERT_EQ(slowed.sim, plain.sim);
  ASSERT_EQ(slowed.pops, plain.pops);
  ASSERT_GT(plain.pops, 1000u);
  const double injected_s =
      static_cast<double>(plain.pops) * static_cast<double>(kDelayNs) / 1e9;

  const double booked_s = slowed.pop_s - plain.pop_s;
  const double wall_rise_s = slowed.wall_s - plain.wall_s;
  std::printf("injected %.3f s over %llu pops: sched.pop +%.3f s, "
              "sim.engine.self_s %+.3f s, untraced wall +%.3f s\n",
              injected_s, static_cast<unsigned long long>(plain.pops),
              booked_s, slowed.self_s - plain.self_s, wall_rise_s);
  EXPECT_GT(booked_s, 0.9 * injected_s);
  EXPECT_LT(booked_s, 1.2 * injected_s);
  EXPECT_LT(std::abs(slowed.self_s - plain.self_s), 0.1 * injected_s);

  EXPECT_GT(wall_rise_s, 0.8 * injected_s);
  EXPECT_LT(wall_rise_s, 1.25 * injected_s);
}

}  // namespace
