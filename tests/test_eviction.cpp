#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/darts.hpp"
#include "core/memory_view.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "decision_pin.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/lru_eviction.hpp"
#include "sim/run_report.hpp"
#include "util/rng.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/matmul2d.hpp"
#include "workloads/random_bipartite.hpp"

namespace mg {
namespace {

using core::DataId;
using core::TaskId;

TEST(LruEviction, PicksOldestStamp) {
  sim::LruEviction lru(1, 4);
  lru.on_load(0, 0);
  lru.on_load(0, 1);
  lru.on_load(0, 2);
  const std::vector<DataId> candidates{0, 1, 2};
  EXPECT_EQ(lru.choose_victim(0, candidates), 0u);
  lru.on_use(0, 0);
  EXPECT_EQ(lru.choose_victim(0, candidates), 1u);
}

TEST(LruEviction, NeverLoadedCountsAsOldest) {
  sim::LruEviction lru(1, 4);
  lru.on_load(0, 1);
  const std::vector<DataId> candidates{1, 3};
  EXPECT_EQ(lru.choose_victim(0, candidates), 3u);
}

TEST(LruEviction, GpusAreIndependent) {
  sim::LruEviction lru(2, 4);
  lru.on_load(0, 0);
  lru.on_load(0, 1);
  lru.on_load(1, 1);
  lru.on_load(1, 0);
  const std::vector<DataId> candidates{0, 1};
  EXPECT_EQ(lru.choose_victim(0, candidates), 0u);
  EXPECT_EQ(lru.choose_victim(1, candidates), 1u);
}

TEST(LruEviction, RespectsCandidateSet) {
  sim::LruEviction lru(1, 8);
  for (DataId data = 0; data < 8; ++data) lru.on_load(0, data);
  const std::vector<DataId> candidates{5, 6};
  EXPECT_EQ(lru.choose_victim(0, candidates), 5u);
}

/// A resident set handed to select_victim: `data` in the given order, each
/// evictable where `mask` says so. Counts evictability queries about data
/// outside the set.
class ListedResidents final : public core::ResidentView {
 public:
  ListedResidents(std::vector<DataId> data, std::vector<char> mask)
      : data_(std::move(data)), mask_(std::move(mask)),
        in_set_(mask_.size(), 0) {
    for (DataId data_id : data_) in_set_[data_id] = 1;
  }
  [[nodiscard]] std::span<const DataId> resident() const override {
    return data_;
  }
  [[nodiscard]] bool evictable(DataId data) const override {
    if (in_set_[data] == 0) ++foreign_queries_;
    return mask_[data] != 0;
  }
  [[nodiscard]] std::span<const DataId> candidates() override {
    candidates_.clear();
    for (DataId data : data_) {
      if (evictable(data)) candidates_.push_back(data);
    }
    return candidates_;
  }
  [[nodiscard]] int foreign_queries() const { return foreign_queries_; }

 private:
  std::vector<DataId> data_;
  std::vector<char> mask_;
  std::vector<char> in_set_;
  std::vector<DataId> candidates_;
  mutable int foreign_queries_ = 0;
};

TEST(LruEviction, SelectVictimIsTheOldestEvictableListedData) {
  // Random interleavings of loads, uses and evictions on two GPUs (an
  // eviction of unlisted data included), checked against a model of the
  // stamps: the victim is the stamp argmin over the listed data a random
  // mask calls evictable, or kInvalidData when the mask spares all of them.
  // The walk may only visit listed data: an evicted entry left in the list
  // would keep every decision but lengthen every later walk.
  constexpr std::uint32_t kGpus = 2;
  constexpr std::uint32_t kData = 24;
  int queries = 0;
  int refusals = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    sim::LruEviction lru(kGpus, kData);
    std::uint64_t clock = 0;
    std::vector<std::vector<std::uint64_t>> stamps(
        kGpus, std::vector<std::uint64_t>(kData, 0));
    std::vector<std::vector<char>> listed(kGpus, std::vector<char>(kData, 0));
    for (int step = 0; step < 500; ++step) {
      const auto gpu = static_cast<core::GpuId>(rng.below(kGpus));
      const auto data = static_cast<DataId>(rng.below(kData));
      switch (rng.below(4)) {
        case 0:
          lru.on_load(gpu, data);
          stamps[gpu][data] = ++clock;
          listed[gpu][data] = 1;
          break;
        case 1:
          lru.on_use(gpu, data);
          stamps[gpu][data] = ++clock;
          listed[gpu][data] = 1;
          break;
        case 2:
          lru.on_evict(gpu, data);
          listed[gpu][data] = 0;
          break;
        default: {
          // Evictable with probability 1/4, so whole-set refusals occur.
          std::vector<DataId> resident;
          std::vector<char> mask(kData, 0);
          DataId expected = core::kInvalidData;
          for (DataId d = 0; d < kData; ++d) {
            if (listed[gpu][d] == 0) continue;
            resident.push_back(d);
            mask[d] = rng.below(4) == 0 ? 1 : 0;
            if (mask[d] != 0 && (expected == core::kInvalidData ||
                                 stamps[gpu][d] < stamps[gpu][expected])) {
              expected = d;
            }
          }
          std::shuffle(resident.begin(), resident.end(), rng);
          ListedResidents view(std::move(resident), std::move(mask));
          EXPECT_EQ(lru.select_victim(gpu, view), expected)
              << "seed " << seed << " step " << step;
          EXPECT_EQ(view.foreign_queries(), 0)
              << "seed " << seed << " step " << step;
          ++queries;
          if (expected == core::kInvalidData) ++refusals;
          break;
        }
      }
    }
  }
  EXPECT_GT(queries, 1000);
  EXPECT_GT(refusals, 50);
}

/// Graph where task i reads data i (plus a shared data for some tests).
core::TaskGraph chain_graph(int tasks) {
  core::TaskGraphBuilder builder;
  std::vector<DataId> data;
  for (int i = 0; i < tasks; ++i) data.push_back(builder.add_data(10));
  for (int i = 0; i < tasks; ++i) builder.add_task(1.0, {data[static_cast<size_t>(i)]});
  return builder.build();
}

TEST(BeladyReplayEviction, EvictsDataWithFurthestNextUse) {
  // Order: t0(d0) t1(d1) t2(d0) t3(d2): after t1, d0 is used again at
  // position 2 while d1 never again -> d1 must go first.
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  const DataId d2 = builder.add_data(10);
  builder.add_task(1.0, {d0});
  builder.add_task(1.0, {d1});
  builder.add_task(1.0, {d0});
  builder.add_task(1.0, {d2});
  const core::TaskGraph graph = builder.build();

  std::vector<std::vector<TaskId>> orders{{0, 1, 2, 3}};
  sched::BeladyReplayEviction belady(graph, orders);
  // No task completed yet.
  const std::vector<DataId> candidates{d0, d1};
  EXPECT_EQ(belady.choose_victim(0, candidates), d1);

  belady.advance(0);  // t0 done
  belady.advance(0);  // t1 done
  // Next uses now: d0 at position 2, d1 never.
  EXPECT_EQ(belady.choose_victim(0, candidates), d1);
  belady.advance(0);  // t2 done
  // Both never used again; either is acceptable — must return a candidate.
  const DataId victim = belady.choose_victim(0, candidates);
  EXPECT_TRUE(victim == d0 || victim == d1);
}

TEST(BeladyReplayEviction, MultiGpuOrdersAreSeparate) {
  const core::TaskGraph graph = chain_graph(4);
  std::vector<std::vector<TaskId>> orders{{0, 1}, {2, 3}};
  sched::BeladyReplayEviction belady(graph, orders);
  // On gpu1, data 2 is used at position 0 and data 3 at position 1:
  // data 3 is the furthest.
  const std::vector<DataId> candidates{2, 3};
  EXPECT_EQ(belady.choose_victim(1, candidates), 3u);
}

// --- LUF (Algorithm 6) property tests -------------------------------------
//
// The DARTS scheduler is driven through its public API (pop_task + the
// notify hooks); the tests maintain an independent record of the taskBuffer
// and planned lists and check choose_victim against the algorithm's spec:
//   line 5: among candidates unused by the pipeline, evict one minimizing
//           planned uses — pipeline-used data must never be chosen while an
//           unused alternative exists;
//   line 7: with every candidate used by the pipeline, apply Belady's rule
//           over the buffered order (furthest first-next-use wins).

/// MemoryView mirroring an explicit resident set.
class LufMirrorMemory final : public core::MemoryView {
 public:
  explicit LufMirrorMemory(std::uint32_t num_data)
      : present_(num_data, false) {}
  [[nodiscard]] bool is_present(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] bool is_present_or_fetching(DataId data) const override {
    return present_[data];
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return 1'000'000;
  }
  [[nodiscard]] std::uint64_t used_bytes() const override { return 0; }
  std::vector<bool> present_;
};

struct LufDrive {
  core::DartsScheduler darts{core::DartsOptions{.use_luf = true}};
  std::vector<TaskId> buffered;  ///< pop order, none completed
  LufMirrorMemory memory;
  const core::TaskGraph& graph;

  LufDrive(const core::TaskGraph& graph_in, std::uint64_t seed)
      : memory(graph_in.num_data()), graph(graph_in) {
    core::Platform platform;
    platform.num_gpus = 1;
    platform.gpu_memory_bytes = 1'000'000;
    darts.prepare(graph, platform, seed);
  }

  /// Pops up to `count` tasks, announcing their inputs as loaded; tasks are
  /// left uncompleted so they stay in the taskBuffer.
  void pop_tasks(int count) {
    for (int i = 0; i < count; ++i) {
      const TaskId task = darts.pop_task(0, memory);
      if (task == core::kInvalidTask) break;
      buffered.push_back(task);
      for (DataId data : graph.inputs(task)) {
        if (!memory.present_[data]) {
          memory.present_[data] = true;
          darts.on_load(0, data);
          darts.notify_data_loaded(0, data);
        }
      }
    }
  }

  [[nodiscard]] std::uint32_t uses_by(const auto& tasks, DataId data) const {
    std::uint32_t uses = 0;
    for (TaskId task : tasks) {
      const auto inputs = graph.inputs(task);
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        ++uses;
      }
    }
    return uses;
  }

  [[nodiscard]] std::uint32_t buffered_uses(DataId data) const {
    return uses_by(buffered, data);
  }
  [[nodiscard]] std::uint32_t planned_uses(DataId data) const {
    return uses_by(darts.planned_tasks(0), data);
  }

  /// First position in the buffered (pop) order using `data`, or
  /// buffered.size() when never used again — Belady's metric.
  [[nodiscard]] std::size_t first_next_use(DataId data) const {
    for (std::size_t i = 0; i < buffered.size(); ++i) {
      const auto inputs = graph.inputs(buffered[i]);
      if (std::find(inputs.begin(), inputs.end(), data) != inputs.end()) {
        return i;
      }
    }
    return buffered.size();
  }
};

TEST(LufEviction, NeverEvictsPipelineUsedDataWhenAlternativeExists) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const core::TaskGraph graph = work::make_random_bipartite(
        {.num_tasks = 30, .num_data = 14, .min_inputs = 1, .max_inputs = 3,
         .data_bytes = 10, .seed = 500 + seed});
    LufDrive drive(graph, seed);
    drive.pop_tasks(3);
    if (drive.buffered.empty()) continue;

    std::vector<DataId> candidates;
    for (DataId data = 0; data < graph.num_data(); ++data) {
      if (drive.memory.present_[data]) candidates.push_back(data);
    }
    if (candidates.empty()) continue;

    const DataId victim = drive.darts.choose_victim(0, candidates);
    ASSERT_NE(victim, core::kInvalidData);
    ASSERT_NE(std::find(candidates.begin(), candidates.end(), victim),
              candidates.end())
        << "victim must come from the candidate set";

    const bool unused_alternative_exists =
        std::any_of(candidates.begin(), candidates.end(), [&](DataId data) {
          return drive.buffered_uses(data) == 0;
        });
    if (unused_alternative_exists) {
      EXPECT_EQ(drive.buffered_uses(victim), 0u)
          << "seed " << seed << ": evicted d" << victim
          << " although the pipeline still reads it";
      // Line 5: among unused candidates, planned uses must be minimal.
      std::uint32_t min_np = ~std::uint32_t{0};
      for (DataId data : candidates) {
        if (drive.buffered_uses(data) == 0) {
          min_np = std::min(min_np, drive.planned_uses(data));
        }
      }
      EXPECT_EQ(drive.planned_uses(victim), min_np) << "seed " << seed;
    }
  }
}

TEST(LufEviction, DegradesToBeladyExactlyWhenAllCandidatesAreInUse) {
  int exercised = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const core::TaskGraph graph = work::make_random_bipartite(
        {.num_tasks = 24, .num_data = 8, .min_inputs = 1, .max_inputs = 3,
         .data_bytes = 10, .seed = 900 + seed});
    LufDrive drive(graph, seed);
    drive.pop_tasks(4);

    // Candidate set restricted to pipeline-used data: the line-5 scan finds
    // nothing and the Belady fallback must decide.
    std::vector<DataId> candidates;
    for (DataId data = 0; data < graph.num_data(); ++data) {
      if (drive.memory.present_[data] && drive.buffered_uses(data) > 0) {
        candidates.push_back(data);
      }
    }
    if (candidates.size() < 2) continue;
    ++exercised;

    // Independent Belady: first candidate whose first next-use is furthest
    // in the buffered order (ties keep the earliest candidate, like the
    // implementation's strict comparison).
    DataId expected = candidates[0];
    std::size_t furthest = drive.first_next_use(candidates[0]);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      const std::size_t next_use = drive.first_next_use(candidates[i]);
      if (next_use > furthest) {
        furthest = next_use;
        expected = candidates[i];
      }
    }

    EXPECT_EQ(drive.darts.choose_victim(0, candidates), expected)
        << "seed " << seed;
  }
  EXPECT_GT(exercised, 5) << "the generator must produce all-in-use rounds";
}

// --- Decision pins ----------------------------------------------------------
//
// Whole runs under the engine's default LRU, pinned to their trace
// fingerprint, load and eviction counts and makespan (tests/decision_pin.hpp).
// Which victim LRU picks, which replicas, pinned, protected or vetoed data
// the memory manager passes over, and what an emergency eviction or a drain
// wipe leaves in the policy's state all move at least one of them: a rewrite
// of victim selection must keep every pin. Each run also checks that it
// exercised the path it is named after.

using test::Pin;
using test::pin_of;

std::uint64_t count_kind(const sim::Trace& trace, sim::TraceKind kind) {
  return static_cast<std::uint64_t>(
      std::count_if(trace.events.begin(), trace.events.end(),
                    [kind](const sim::TraceEvent& event) {
                      return event.kind == kind;
                    }));
}

/// Records the SLO eviction-veto reports and the node lifecycle, which the
/// trace does not carry.
class LifecycleRecorder final : public sim::Inspector {
 public:
  void on_event(const sim::InspectorEvent& event) override {
    switch (event.kind) {
      case sim::InspectorEventKind::kEvictionVetoed:
        vetoes.push_back(event);
        break;
      case sim::InspectorEventKind::kNodeDrained:
        drained_at_us = event.time_us;
        break;
      case sim::InspectorEventKind::kNodeJoined:
        joined_at_us = event.time_us;
        break;
      default:
        break;
    }
  }
  std::vector<sim::InspectorEvent> vetoes;
  double drained_at_us = -1.0;
  double joined_at_us = -1.0;
};

/// One run with its trace, metrics and report, checker attached.
struct PinnedRun {
  Pin pin;
  core::RunMetrics metrics;
  sim::RunReport report;
  sim::Trace trace;
};

/// Runs `engine` (already configured) with a recorder and a checker.
PinnedRun run_checked(sim::RuntimeEngine& engine) {
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  return {pin_of(recorder.trace(), metrics), metrics, recorder.report(),
          recorder.trace()};
}

Pin run_eager_cholesky_dag() {
  // cholesky_dag in miniature: EAGER over the tile DAG, memory for a
  // handful of tiles, so nearly every task start evicts.
  const core::TaskGraph graph =
      work::make_cholesky_tasks({.n = 12, .with_dependencies = true});
  sched::EagerScheduler eager;
  sim::RuntimeEngine engine(graph, core::make_v100_platform(2, 20 * core::kMB),
                            eager, {.seed = 7});
  const PinnedRun run = run_checked(engine);
  EXPECT_GE(run.metrics.total_evictions(), graph.num_tasks());
  return run.pin;
}

PinnedRun run_dmdar_outputs(bool hints_may_evict) {
  // DMDAR's push-time prefetch hints, here allowed to make room like a
  // demand fetch, and output tiles whose scratch is reserved through the
  // same eviction path before each task starts.
  const core::TaskGraph graph =
      work::make_cholesky_tasks({.n = 10, .with_outputs = true});
  sched::DmdaScheduler dmdar;
  sim::EngineConfig config;
  config.seed = 7;
  config.hints_may_evict = hints_may_evict;
  sim::RuntimeEngine engine(graph, core::make_v100_platform(2, 30 * core::kMB),
                            dmdar, config);
  return run_checked(engine);
}

Pin run_dmdar_evicting_hints() {
  const PinnedRun run = run_dmdar_outputs(true);
  EXPECT_GT(run.metrics.total_evictions(), 0u);
  EXPECT_GT(count_kind(run.trace, sim::TraceKind::kWriteBack), 0u);
  EXPECT_GT(run.report.prefetch.prefetch_fetches, 0u);
  // The evicting hints steer the run: without them it differs.
  EXPECT_NE(run.pin.trace_hash, run_dmdar_outputs(false).pin.trace_hash);
  return run.pin;
}

Pin run_capacity_shock() {
  // A shock cuts gpu0's memory from 100 to 40 MB mid-run: emergency_evict
  // sheds unpinned data until the committed bytes fit again.
  sim::FaultPlan plan;
  plan.capacity_shocks.push_back({20'000.0, 0, 40 * core::kMB});
  sim::FaultInjector injector(plan);
  const core::TaskGraph graph = work::make_matmul_2d({.n = 16});
  sched::EagerScheduler eager;
  sim::RuntimeEngine engine(graph, core::make_v100_platform(2, 100 * core::kMB),
                            eager, {.seed = 7});
  engine.set_fault_injector(&injector);
  const PinnedRun run = run_checked(engine);
  EXPECT_EQ(run.metrics.faults.capacity_shocks, 1u);
  EXPECT_GE(run.metrics.faults.emergency_evictions, 1u);
  return run.pin;
}

Pin run_vetoed_stream() {
  // Streamed jobs in two tiers; the high tier's inputs are protected, so
  // evictions pass over vetoed data and report it. Every kEvictionVetoed
  // (gpu, data) joins the hash. M holds more than one job's inputs (the
  // N=5 template reads 10 x 14 MB), below which the veto deadlocks
  // (ROADMAP open item 1).
  const std::vector<core::TaskGraph> templates = {
      work::make_matmul_2d({.n = 5}), work::make_matmul_2d({.n = 6})};
  std::vector<serve::JobSpec> jobs(40);
  for (std::uint32_t job = 0; job < jobs.size(); ++job) {
    jobs[job].graph = job % 2;
    jobs[job].priority = 1 - job % 2;
  }
  serve::ServeConfig config;
  config.arrival.mode = serve::ArrivalMode::kPoisson;
  config.arrival.rate_jobs_per_s = 900.0;
  config.arrival.seed = 7;
  config.admission.max_jobs_in_flight = 4;
  config.engine.seed = 7;
  config.slo.enabled = true;
  config.slo.tiers = slo::TierPolicy{
      {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
       {.min_priority = 1, .deadline_us = 12e3, .admission_weight = 4}}};
  config.slo.protect_min_priority = 1;

  sched::EagerScheduler eager;
  serve::ServeEngine engine(templates, jobs,
                            core::make_v100_platform(2, 200 * core::kMB),
                            eager, config);
  sim::RunReportCollector recorder;
  sim::InvariantChecker checker({.fail_fast = false});
  LifecycleRecorder lifecycle;
  engine.add_inspector(&recorder);
  engine.add_inspector(&checker);
  engine.add_inspector(&lifecycle);
  const serve::ServeResult result = engine.run();
  EXPECT_EQ(result.serving.jobs_completed, jobs.size());
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  EXPECT_GT(result.metrics.total_evictions(), 0u);
  EXPECT_GT(recorder.report().slo.evictions_vetoed, 0u);
  Pin pin = pin_of(recorder.trace(), result.metrics);
  for (const sim::InspectorEvent& veto : lifecycle.vetoes) {
    test::fnv1a_mix(pin.trace_hash, veto.gpu, 4);
    test::fnv1a_mix(pin.trace_hash, veto.id, 4);
  }
  return pin;
}

Pin run_drain_and_rejoin() {
  // Node 1 drains (wipe_resident drops its GPUs' copies and tells the
  // policy) and later rejoins; its GPUs then evict again on top of the
  // policy state the wipe left behind.
  const core::TaskGraph graph = work::make_matmul_2d({.n = 24});
  core::Platform platform = core::make_v100_platform(4, 100 * core::kMB);
  platform.num_nodes = 2;
  sched::EagerScheduler eager;
  sim::RuntimeEngine engine(graph, platform, eager, {.seed = 7});
  engine.event_queue().schedule_at(
      30'000.0, [&engine] { engine.begin_node_drain(1); });
  engine.event_queue().schedule_at(
      120'000.0, [&engine] { engine.begin_node_join(1); });
  LifecycleRecorder lifecycle;
  engine.add_inspector(&lifecycle);
  const PinnedRun run = run_checked(engine);
  EXPECT_EQ(engine.node_status(1), sim::RuntimeEngine::NodeStatus::kActive);
  EXPECT_GT(lifecycle.drained_at_us, 0.0);
  EXPECT_GT(lifecycle.joined_at_us, lifecycle.drained_at_us);
  std::uint64_t rejoined_evictions = 0;
  for (const sim::TraceEvent& event : run.trace.events) {
    if (event.kind == sim::TraceKind::kEvict &&
        platform.node_of(event.gpu) == 1 &&
        event.time_us > lifecycle.joined_at_us) {
      ++rejoined_evictions;
    }
  }
  EXPECT_GT(rejoined_evictions, 0u);
  return run.pin;
}

struct PinCase {
  const char* name;
  Pin (*run)();
  Pin expected;
};

// Reference values: the memory manager handing LRU a freshly built
// candidate list on every eviction, and LRU scanning it for the oldest
// stamp, gives these runs.
const PinCase kPinCases[] = {
    {"EagerCholeskyDag", run_eager_cholesky_dag,
     {0x5881be24a37c1fe0ULL, 1061, 1051, 260947.96424959946}},
    {"DmdarEvictingHints", run_dmdar_evicting_hints,
     {0x1fe4eb02b45a982eULL, 654, 641, 160691.87224024555}},
    {"CapacityShock", run_capacity_shock,
     {0x4c6161b8ebdc3599ULL, 288, 279, 257841.1650192409}},
    {"VetoedStream", run_vetoed_stream,
     {0xada91201049b308eULL, 136, 108, 394274.86322904681}},
    {"DrainAndRejoin", run_drain_and_rejoin,
     {0x96d4e443b375f350ULL, 704, 662, 414502.05500641366}},
};

// gtest prints the parameter into each test's listed name; print the case
// name so that name does not carry the address of the name string.
void PrintTo(const PinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

class EvictionDecisionPin : public testing::TestWithParam<PinCase> {};

TEST_P(EvictionDecisionPin, RunRepeatsExactly) {
  const PinCase& pin_case = GetParam();
  const Pin actual = pin_case.run();
  EXPECT_EQ(actual.trace_hash, pin_case.expected.trace_hash);
  EXPECT_EQ(actual.loads, pin_case.expected.loads);
  EXPECT_EQ(actual.evictions, pin_case.expected.evictions);
  EXPECT_DOUBLE_EQ(actual.makespan_us, pin_case.expected.makespan_us);
}

INSTANTIATE_TEST_SUITE_P(Runs, EvictionDecisionPin,
                         testing::ValuesIn(kPinCases),
                         [](const testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mg
