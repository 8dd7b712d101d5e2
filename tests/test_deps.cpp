// Dependency-model test battery (ctest label: deps).
//
// Five angles on the DAG machinery:
//   - a brute-force oracle for the RAW/WAR/WAW derivation over random
//     read/write footprints and explicit edges, checked edge-by-edge
//     against TaskGraphBuilder, plus the CSR promises of the graph's
//     header;
//   - graph pins: a fingerprint of every dependency array the build
//     exposes, on the benchmark's Cholesky DAG and on hand-built corners;
//   - property tests on randomized layered DAGs: every execution order the
//     engine realizes is topological, across schedulers and platforms;
//   - bit-identity: with an empty edge set the run report JSON string is
//     exactly the independent-task output, dependencies section zeroed;
//   - a memory-bound oracle on tree-shaped graphs: serial release under the
//     optimal post-order never exceeds the classic peak-memory bound
//     (Liu's recursion, the reference point of Marchal/Sinnen/Vivien's
//     tree-scheduling line of work), and the engine replays that order
//     without a single dependency stall.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/darts.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/fixed_order.hpp"
#include "sched/hfp.hpp"
#include "sim/engine.hpp"
#include "sim/inspector.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "decision_pin.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace mg {
namespace {

using core::DataId;
using core::GpuId;
using core::TaskId;

// ---------------------------------------------------------------------------
// Brute-force oracle for the RAW/WAR/WAW derivation.
// ---------------------------------------------------------------------------

struct OracleEdge {
  TaskId pred;
  TaskId succ;
  std::uint8_t kind;
};

/// Independent re-derivation of the versioned-data edge rules: in submission
/// order, a read binds to the current version (RAW from its writer); a write
/// retires the current version (WAR from its readers, WAW from its writer)
/// and opens the next. Explicit edges join as kDepExplicit; duplicate
/// (pred, succ) pairs OR their kind bits.
std::map<std::pair<TaskId, TaskId>, std::uint8_t> oracle_edges(
    std::uint32_t num_tasks, std::uint32_t num_data,
    const std::vector<std::vector<DataId>>& reads,
    const std::vector<std::vector<DataId>>& writes,
    const std::vector<std::pair<TaskId, TaskId>>& explicit_edges) {
  std::map<std::pair<TaskId, TaskId>, std::uint8_t> edges;
  for (const auto& edge : explicit_edges) edges[edge] |= core::kDepExplicit;
  std::vector<TaskId> writer(num_data, core::kInvalidTask);
  std::vector<std::vector<TaskId>> readers(num_data);
  for (TaskId task = 0; task < num_tasks; ++task) {
    for (DataId data : reads[task]) {
      if (writer[data] != core::kInvalidTask) {
        edges[{writer[data], task}] |= core::kDepRaw;
      }
      readers[data].push_back(task);
    }
    for (DataId data : writes[task]) {
      for (TaskId reader : readers[data]) {
        if (reader != task) edges[{reader, task}] |= core::kDepWar;
      }
      if (writer[data] != core::kInvalidTask) {
        edges[{writer[data], task}] |= core::kDepWaw;
      }
      writer[data] = task;
      readers[data].clear();
    }
  }
  return edges;
}

/// True if `ids` is strictly ascending (sorted, no repeats).
bool strictly_ascending(std::span<const std::uint32_t> ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            std::greater_equal<>()) == ids.end();
}

TEST(DepsOracle, DerivationMatchesBruteForce) {
  util::Rng rng(0xdef5);
  for (int round = 0; round < 25; ++round) {
    const auto num_tasks = 10 + static_cast<std::uint32_t>(rng.below(30));
    const auto num_data = 4 + static_cast<std::uint32_t>(rng.below(8));

    core::TaskGraphBuilder builder;
    for (DataId data = 0; data < num_data; ++data) builder.add_data(100);

    std::vector<std::vector<DataId>> reads(num_tasks);
    std::vector<std::vector<DataId>> writes(num_tasks);
    for (TaskId task = 0; task < num_tasks; ++task) {
      const auto degree = 1 + static_cast<std::uint32_t>(rng.below(3));
      while (reads[task].size() < degree) {
        const auto data = static_cast<DataId>(rng.below(num_data));
        if (std::find(reads[task].begin(), reads[task].end(), data) ==
            reads[task].end()) {
          reads[task].push_back(data);
        }
      }
      const TaskId id = builder.add_task(1.0, reads[task]);
      ASSERT_EQ(id, task);
      // 0-2 written data items, in random order; a write may or may not
      // also be a read.
      const auto num_writes = rng.below(3);
      for (std::uint64_t w = 0; w < num_writes; ++w) {
        const auto data = static_cast<DataId>(rng.below(num_data));
        if (std::find(writes[task].begin(), writes[task].end(), data) ==
            writes[task].end()) {
          builder.set_task_writes(task, data);
          writes[task].push_back(data);
        }
      }
    }
    // Forward explicit edges, about a quarter of them declared twice.
    std::vector<std::pair<TaskId, TaskId>> explicit_edges;
    const auto num_explicit = rng.below(num_tasks);
    for (std::uint64_t e = 0; e < num_explicit; ++e) {
      const auto a = static_cast<TaskId>(rng.below(num_tasks));
      const auto b = static_cast<TaskId>(rng.below(num_tasks));
      if (a == b) continue;
      const int copies = rng.chance(0.25) ? 2 : 1;
      for (int copy = 0; copy < copies; ++copy) {
        builder.add_dependency(std::min(a, b), std::max(a, b));
        explicit_edges.emplace_back(std::min(a, b), std::max(a, b));
      }
    }
    const core::TaskGraph graph = builder.build();
    const auto expected =
        oracle_edges(num_tasks, num_data, reads, writes, explicit_edges);
    SCOPED_TRACE("round " + std::to_string(round) + ": " +
                 std::to_string(expected.size()) + " oracle edges");

    // Edge-by-edge: the predecessor CSR must be exactly the oracle set.
    std::uint64_t graph_edges = 0;
    for (TaskId task = 0; task < num_tasks; ++task) {
      const auto preds = graph.predecessors(task);
      const auto kinds = graph.predecessor_kinds(task);
      ASSERT_EQ(preds.size(), kinds.size());
      graph_edges += preds.size();
      for (std::size_t i = 0; i < preds.size(); ++i) {
        const auto it = expected.find({preds[i], task});
        ASSERT_NE(it, expected.end())
            << "builder invented edge " << preds[i] << " -> " << task;
        EXPECT_EQ(kinds[i], it->second)
            << "kind mismatch on " << preds[i] << " -> " << task;
        // Derived and (here) explicit edges point forward in submission
        // order.
        EXPECT_LT(preds[i], task);
      }
    }
    EXPECT_EQ(graph_edges, expected.size());
    EXPECT_EQ(graph.dependency_edge_counts().total, expected.size());
    EXPECT_EQ(graph.has_dependencies(), !expected.empty());

    // The header's promises: both edge lists ascending, the successor CSR
    // the exact transpose of the predecessor CSR with equal kinds, writes
    // ascending per task, writers in version (task) order.
    std::uint64_t successor_edges = 0;
    for (TaskId task = 0; task < num_tasks; ++task) {
      EXPECT_TRUE(strictly_ascending(graph.predecessors(task))) << task;
      const auto succs = graph.successors(task);
      const auto kinds = graph.successor_kinds(task);
      ASSERT_EQ(succs.size(), kinds.size());
      EXPECT_TRUE(strictly_ascending(succs)) << task;
      successor_edges += succs.size();
      for (std::size_t i = 0; i < succs.size(); ++i) {
        const auto preds = graph.predecessors(succs[i]);
        const auto at = std::find(preds.begin(), preds.end(), task);
        ASSERT_NE(at, preds.end()) << task << " -> " << succs[i];
        EXPECT_EQ(graph.predecessor_kinds(succs[i])[static_cast<std::size_t>(
                      at - preds.begin())],
                  kinds[i])
            << task << " -> " << succs[i];
      }
      std::vector<DataId> declared = writes[task];
      std::sort(declared.begin(), declared.end());
      EXPECT_EQ(std::vector<DataId>(graph.writes(task).begin(),
                                    graph.writes(task).end()),
                declared)
          << task;
    }
    EXPECT_EQ(successor_edges, graph_edges);
    for (DataId data = 0; data < num_data; ++data) {
      std::vector<TaskId> writers;
      for (TaskId task = 0; task < num_tasks; ++task) {
        if (std::find(writes[task].begin(), writes[task].end(), data) !=
            writes[task].end()) {
          writers.push_back(task);
        }
      }
      EXPECT_EQ(std::vector<TaskId>(graph.writers(data).begin(),
                                    graph.writers(data).end()),
                writers)
          << data;
    }
  }
}

TEST(DepsOracle, CholeskyAndLuCriticalPaths) {
  // The right-looking factorizations chain POTRF/GETRF(k) -> panel solve ->
  // trailing update -> POTRF/GETRF(k+1): three tasks per step, 3N-2 total.
  for (std::uint32_t n : {2u, 4u, 8u}) {
    const auto chol = work::make_cholesky_tasks({.n = n,
                                                 .with_dependencies = true});
    EXPECT_EQ(chol.critical_path_length(), 3 * n - 2) << "cholesky n=" << n;
    EXPECT_EQ(chol.num_tasks(), work::cholesky_task_count(n));
    const auto lu = work::make_lu_tasks({.n = n, .with_dependencies = true});
    EXPECT_EQ(lu.critical_path_length(), 3 * n - 2) << "lu n=" << n;
    EXPECT_EQ(lu.num_tasks(), work::lu_task_count(n));
  }
  // Dependencies off: same task set, no edges.
  const auto flat = work::make_cholesky_tasks({.n = 8});
  EXPECT_FALSE(flat.has_dependencies());
  EXPECT_EQ(flat.critical_path_length(), 0u);
}

// ---------------------------------------------------------------------------
// Build-time rejections: the checks only build() can make.
// ---------------------------------------------------------------------------

TEST(DepsDeathTest, RejectsDuplicateWriteDeclaredApart) {
  // set_task_writes catches a repeat only among the task's latest
  // declarations; this one is separated by another task's write.
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(4);
  const DataId d1 = builder.add_data(4);
  const TaskId t0 = builder.add_task(1.0, {d0});
  const TaskId t1 = builder.add_task(1.0, {d1});
  builder.set_task_writes(t0, d0);
  builder.set_task_writes(t1, d1);
  builder.set_task_writes(t0, d0);
  EXPECT_DEATH((void)builder.build(), "duplicate write declaration");
}

TEST(DepsDeathTest, RejectsCycles) {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(4);
  for (int t = 0; t < 3; ++t) builder.add_task(1.0, {d0});
  // A 2-cycle of explicit edges.
  builder.add_dependency(0, 1);
  builder.add_dependency(1, 0);
  EXPECT_DEATH((void)builder.build(), "dependency cycle in task graph");

  // A 3-cycle of explicit edges.
  builder.clear();
  const DataId d1 = builder.add_data(4);
  for (int t = 0; t < 3; ++t) builder.add_task(1.0, {d1});
  builder.add_dependency(0, 1);
  builder.add_dependency(1, 2);
  builder.add_dependency(2, 0);
  EXPECT_DEATH((void)builder.build(), "dependency cycle in task graph");

  // An explicit edge closing a 2-cycle with a derived RAW edge.
  builder.clear();
  const DataId d2 = builder.add_data(4);
  const TaskId writer = builder.add_task(1.0, {d2});
  builder.set_task_writes(writer, d2);
  const TaskId reader = builder.add_task(1.0, {d2});
  builder.add_dependency(reader, writer);
  EXPECT_DEATH((void)builder.build(), "dependency cycle in task graph");
}

TEST(DepsDeathTest, RejectsSelfDependency) {
  core::TaskGraphBuilder builder;
  const TaskId task = builder.add_task(1.0, {builder.add_data(4)});
  EXPECT_DEATH(builder.add_dependency(task, task), "self-dependency");
}

// ---------------------------------------------------------------------------
// Graph pins: every dependency array the build exposes. The engine releases
// successors in CSR order, so a change to the build must reproduce these
// arrays element for element, not just the edge set.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over each task's predecessors and successors (each with
/// its kinds) and writes, each data's writers (every list prefixed by its
/// length), the five edge counts, the critical path and has_dependencies().
std::uint64_t graph_fingerprint(const core::TaskGraph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix_kinds = [&hash](std::span<const std::uint8_t> kinds) {
    for (const std::uint8_t kind : kinds) test::fnv1a_mix(hash, kind, 1);
  };
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    test::fnv1a_mix_ids(hash, graph.predecessors(task));
    mix_kinds(graph.predecessor_kinds(task));
    test::fnv1a_mix_ids(hash, graph.successors(task));
    mix_kinds(graph.successor_kinds(task));
    test::fnv1a_mix_ids(hash, graph.writes(task));
  }
  for (DataId data = 0; data < graph.num_data(); ++data) {
    test::fnv1a_mix_ids(hash, graph.writers(data));
  }
  const core::DepEdgeCounts& counts = graph.dependency_edge_counts();
  for (const std::uint64_t count : {counts.total, counts.explicit_edges,
                                    counts.raw, counts.war, counts.waw}) {
    test::fnv1a_mix64(hash, count);
  }
  test::fnv1a_mix(hash, graph.critical_path_length(), 4);
  test::fnv1a_mix(hash, graph.has_dependencies() ? 1u : 0u, 1);
  return hash;
}

/// Duplicate explicit edges, explicit edges that repeat derived ones or run
/// from a higher id to a lower one, and tasks whose several writes are
/// declared out of order, one of them after a later task was added.
core::TaskGraph make_corner_case_graph() {
  core::TaskGraphBuilder builder;
  for (int d = 0; d < 5; ++d) builder.add_data(100);
  const TaskId t0 = builder.add_task(1.0, {0});
  builder.set_task_writes(t0, 1);
  const TaskId t1 = builder.add_task(1.0, {0, 1});
  builder.set_task_writes(t0, 0);
  const TaskId t2 = builder.add_task(1.0, {1, 2});
  builder.set_task_writes(t2, 2);
  builder.set_task_writes(t2, 1);
  const TaskId t3 = builder.add_task(1.0, {3});
  builder.set_task_writes(t3, 3);
  const TaskId t4 = builder.add_task(1.0, {1, 3});
  const TaskId t5 = builder.add_task(1.0, {4});
  builder.set_task_writes(t5, 4);
  builder.set_task_writes(t5, 0);
  builder.add_dependency(t0, t1);  // repeats the derived RAW edges
  builder.add_dependency(t0, t1);
  builder.add_dependency(t3, t1);  // higher id to lower
  builder.add_dependency(t3, t2);
  builder.add_dependency(t2, t4);  // repeats a derived RAW edge
  builder.add_dependency(t4, t5);
  builder.add_dependency(t4, t5);
  return builder.build();
}

/// A chain of explicit edges, every one from a higher id to a lower one.
core::TaskGraph make_descending_chain() {
  core::TaskGraphBuilder builder;
  const DataId data = builder.add_data(100);
  for (int t = 0; t < 40; ++t) builder.add_task(1.0, {data});
  for (TaskId t = 39; t > 0; --t) builder.add_dependency(t, t - 1);
  return builder.build();
}

/// Every task writes its own data and no other task reads it: write CSRs,
/// but no dependency edge.
core::TaskGraph make_edgeless_writes() {
  core::TaskGraphBuilder builder;
  const DataId shared = builder.add_data(100);
  for (int t = 0; t < 8; ++t) {
    const DataId own = builder.add_data(100);
    builder.set_task_writes(builder.add_task(1.0, {shared, own}), own);
  }
  return builder.build();
}

core::TaskGraph make_layered(std::uint64_t seed, bool with_writes) {
  return work::make_layered_dag({.num_layers = 6,
                                 .tasks_per_layer = 24,
                                 .num_data = 20,
                                 .min_inputs = 1,
                                 .max_inputs = 3,
                                 .max_preds = 3,
                                 .with_writes = with_writes,
                                 .data_bytes = 50,
                                 .task_flops = 1e6,
                                 .seed = seed});
}

struct GraphPinCase {
  const char* name;
  core::TaskGraph (*graph)();
  std::uint64_t expected;
};

// gtest prints the parameter into each test's listed name; print the case
// name so that name does not carry the address of the name string.
void PrintTo(const GraphPinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

// Reference values: the sort-based build (every derived and explicit edge
// in one list, sorted by (pred, succ) and deduplicated) gives these arrays.
const GraphPinCase kGraphPinCases[] = {
    // cholesky_dag's graph.
    {"CholeskyN100",
     [] {
       return work::make_cholesky_tasks({.n = 100, .with_dependencies = true});
     },
     0xfd0edd97ab14b1c8ULL},
    {"CholeskyN12Outputs",
     [] {
       return work::make_cholesky_tasks(
           {.n = 12, .with_outputs = true, .with_dependencies = true});
     },
     0x38d731a2e878bb20ULL},
    {"LuN30",
     [] { return work::make_lu_tasks({.n = 30, .with_dependencies = true}); },
     0xcd97a40b425f8d1fULL},
    {"LayeredWrites1", [] { return make_layered(1, true); },
     0x6fa836689bee587eULL},
    {"LayeredWrites2", [] { return make_layered(2, true); },
     0xbd0b0b37bade2f53ULL},
    {"LayeredWrites3", [] { return make_layered(3, true); },
     0x7a31de5fab763132ULL},
    {"LayeredExplicitOnly", [] { return make_layered(4, false); },
     0x68bb8d3f9b379d93ULL},
    {"CornerCases", make_corner_case_graph, 0x7c5f8f623e6f6730ULL},
    {"DescendingChain", make_descending_chain, 0x32a7badb277edd1fULL},
    {"WritesWithoutEdges", make_edgeless_writes, 0xe6562deb95e3b037ULL},
};

/// A builder holding `graph` again: its data, tasks, outputs, warps and
/// writes, and the edges whose kinds carry kDepExplicit.
core::TaskGraphBuilder builder_of(const core::TaskGraph& graph) {
  core::TaskGraphBuilder builder;
  for (DataId data = 0; data < graph.num_data(); ++data) {
    builder.add_data(graph.data_size(data), graph.data_label(data));
  }
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    builder.add_task(graph.task_flops(task), graph.inputs(task),
                     graph.task_label(task));
    builder.set_task_output(task, graph.task_output_bytes(task));
    builder.set_task_warps(task, graph.task_warps(task));
    for (const DataId data : graph.writes(task)) {
      builder.set_task_writes(task, data);
    }
  }
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    const auto preds = graph.predecessors(task);
    const auto kinds = graph.predecessor_kinds(task);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (kinds[i] & core::kDepExplicit) builder.add_dependency(preds[i], task);
    }
  }
  return builder;
}

class GraphPin : public testing::TestWithParam<GraphPinCase> {};

// The generators build through the consuming build(); the same graph, put
// back into a builder, comes out identical through either overload.
TEST_P(GraphPin, BuildRepeatsExactly) {
  const GraphPinCase& pin_case = GetParam();
  const core::TaskGraph graph = pin_case.graph();
  const std::uint64_t actual = graph_fingerprint(graph);
  EXPECT_EQ(actual, pin_case.expected) << "actual 0x" << std::hex << actual;

  core::TaskGraphBuilder builder = builder_of(graph);
  const core::TaskGraph copied = builder.build();
  const core::TaskGraph consumed = std::move(builder).build();
  for (const core::TaskGraph* rebuilt : {&copied, &consumed}) {
    EXPECT_EQ(graph_fingerprint(*rebuilt), pin_case.expected);
    EXPECT_EQ(test::graph_arrays_fingerprint(*rebuilt),
              test::graph_arrays_fingerprint(graph));
  }
  EXPECT_EQ(builder.num_tasks(), 0u);  // the consuming build clears it
}

INSTANTIATE_TEST_SUITE_P(Graphs, GraphPin, testing::ValuesIn(kGraphPinCases),
                         [](const testing::TestParamInfo<GraphPinCase>& info) {
                           return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------------
// Property: realized execution order is topological, across schedulers.
// ---------------------------------------------------------------------------

/// Records per-task start/end times from the inspector stream.
class TimelineRecorder final : public sim::Inspector {
 public:
  void on_run_begin(const core::TaskGraph& graph, const core::Platform&,
                    std::string_view) override {
    start_us.assign(graph.num_tasks(), -1.0);
    end_us.assign(graph.num_tasks(), -1.0);
  }
  void on_event(const sim::InspectorEvent& event) override {
    if (event.kind == sim::InspectorEventKind::kTaskStart) {
      start_us[event.id] = event.time_us;
    } else if (event.kind == sim::InspectorEventKind::kTaskEnd) {
      end_us[event.id] = event.time_us;
    }
  }
  std::vector<double> start_us;
  std::vector<double> end_us;
};

struct SchedulerCase {
  std::string label;
  std::unique_ptr<core::Scheduler> scheduler;
};

std::vector<SchedulerCase> make_schedulers() {
  std::vector<SchedulerCase> cases;
  cases.push_back({"EAGER", std::make_unique<sched::EagerScheduler>()});
  cases.push_back({"DMDAR", std::make_unique<sched::DmdaScheduler>()});
  cases.push_back({"DARTS+LUF", std::make_unique<core::DartsScheduler>(
                                    core::DartsOptions{.use_luf = true})});
  cases.push_back({"HFP", std::make_unique<sched::HfpScheduler>()});
  return cases;
}

class TopologicalOrderTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologicalOrderTest, RandomDagsExecuteTopologically) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const work::LayeredDagParams params{
      .num_layers = 3 + static_cast<std::uint32_t>(rng.below(3)),
      .tasks_per_layer = 6 + static_cast<std::uint32_t>(rng.below(10)),
      .num_data = 10 + static_cast<std::uint32_t>(rng.below(10)),
      .min_inputs = 1,
      .max_inputs = 3,
      .max_preds = 1 + static_cast<std::uint32_t>(rng.below(3)),
      .with_writes = (seed % 2 == 0),
      .data_bytes = 50,
      .task_flops = 1e6,
      .seed = seed};
  const core::TaskGraph graph = work::make_layered_dag(params);
  ASSERT_TRUE(graph.has_dependencies());
  EXPECT_GE(graph.critical_path_length(), params.num_layers);

  core::Platform platform;
  platform.num_gpus = 1 + static_cast<std::uint32_t>(rng.below(3));
  platform.gpu_memory_bytes = 50 * params.num_data;  // roomy

  for (SchedulerCase& entry : make_schedulers()) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " scheduler " + entry.label);
    sim::RuntimeEngine engine(graph, platform, *entry.scheduler,
                              {.seed = seed});
    TimelineRecorder timeline;
    sim::InvariantChecker checker({.fail_fast = false});
    engine.add_inspector(&timeline);
    engine.add_inspector(&checker);
    const core::RunMetrics metrics = engine.run();
    ASSERT_TRUE(checker.ok())
        << checker.report().error << "\nlast events:\n"
        << checker.report().excerpt;

    std::uint64_t executed = 0;
    for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
    EXPECT_EQ(executed, graph.num_tasks());

    // Every edge respected: a successor starts only after its predecessor
    // finished (retirement is instantaneous at finish on fault-free runs).
    for (TaskId task = 0; task < graph.num_tasks(); ++task) {
      ASSERT_GE(timeline.start_us[task], 0.0) << "task " << task;
      for (TaskId pred : graph.predecessors(task)) {
        EXPECT_GE(timeline.start_us[task], timeline.end_us[pred])
            << "edge " << pred << " -> " << task << " violated";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologicalOrderTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Bit-identity: an empty edge set leaves the report byte-for-byte the
// independent-task output.
// ---------------------------------------------------------------------------

TEST(DepsBitIdentity, EdgeFreeRunsSerializeIdentically) {
  // The same Cholesky task set built through the dependency-capable
  // generator with the flag off must be indistinguishable — in the full
  // JSON report, not just the headline metrics — from the default build,
  // and re-running must reproduce the document exactly.
  const core::Platform platform = core::make_v100_platform(2, 120 * core::kMB);
  auto report_for = [&](const core::TaskGraph& graph,
                        core::Scheduler& scheduler) {
    sim::RuntimeEngine engine(graph, platform, scheduler, {.seed = 42});
    sim::RunReportCollector collector;
    engine.add_inspector(&collector);
    engine.run();
    return sim::run_report_to_json(collector.report());
  };

  const core::TaskGraph plain = work::make_cholesky_tasks({.n = 8});
  const core::TaskGraph flagged_off =
      work::make_cholesky_tasks({.n = 8, .with_dependencies = false});
  ASSERT_FALSE(flagged_off.has_dependencies());

  for (SchedulerCase& entry : make_schedulers()) {
    SCOPED_TRACE(entry.label);
    const std::string baseline = report_for(plain, *entry.scheduler);
    EXPECT_EQ(report_for(flagged_off, *entry.scheduler), baseline);
    EXPECT_EQ(report_for(plain, *entry.scheduler), baseline);
    // The dependencies section stays zeroed on edge-free graphs.
    EXPECT_NE(baseline.find("\"dependencies\":{\"enabled\":false"),
              std::string::npos);
  }
}

TEST(DepsBitIdentity, DagRunsAreDeterministic) {
  const core::TaskGraph graph =
      work::make_cholesky_tasks({.n = 8, .with_dependencies = true});
  const core::Platform platform = core::make_v100_platform(2, 120 * core::kMB);
  for (SchedulerCase& entry : make_schedulers()) {
    SCOPED_TRACE(entry.label);
    auto run_once = [&] {
      sim::RuntimeEngine engine(graph, platform, *entry.scheduler,
                                {.seed = 7});
      sim::RunReportCollector collector;
      engine.add_inspector(&collector);
      engine.run();
      return sim::run_report_to_json(collector.report());
    };
    const std::string first = run_once();
    EXPECT_EQ(run_once(), first);
    EXPECT_NE(first.find("\"dependencies\":{\"enabled\":true"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Memory-bound oracle: tree-shaped graphs under serial release.
// ---------------------------------------------------------------------------

struct TreeNode {
  std::vector<TaskId> children;
  std::uint64_t bytes = 0;  ///< size of the node's output data
};

/// Peak memory of the optimal post-order traversal (Liu's recursion): with
/// children visited in decreasing (peak - residual), the subtree peak is
///   max( max_i (sum_{j<i} s_j + P_i),  sum_i s_i + s_v ).
std::uint64_t post_order_peak(const std::vector<TreeNode>& tree, TaskId v,
                              std::vector<TaskId>& order) {
  std::vector<std::pair<std::uint64_t, TaskId>> ranked;  // (peak, child)
  ranked.reserve(tree[v].children.size());
  for (TaskId child : tree[v].children) {
    std::vector<TaskId> child_order;
    ranked.emplace_back(post_order_peak(tree, child, child_order), child);
  }
  std::sort(ranked.begin(), ranked.end(),
            [&](const auto& a, const auto& b) {
              const std::int64_t lhs =
                  static_cast<std::int64_t>(a.first) -
                  static_cast<std::int64_t>(tree[a.second].bytes);
              const std::int64_t rhs =
                  static_cast<std::int64_t>(b.first) -
                  static_cast<std::int64_t>(tree[b.second].bytes);
              return lhs > rhs;
            });
  std::uint64_t peak = 0;
  std::uint64_t resident = 0;  // finished children outputs still live
  for (const auto& [child_peak, child] : ranked) {
    std::vector<TaskId> child_order;
    post_order_peak(tree, child, child_order);
    order.insert(order.end(), child_order.begin(), child_order.end());
    peak = std::max(peak, resident + child_peak);
    resident += tree[child].bytes;
  }
  peak = std::max(peak, resident + tree[v].bytes);
  order.push_back(v);
  return peak;
}

/// Replays `order` serially: a data item is live from the start of its
/// first toucher (reader or writer) to the finish of its last; returns the
/// peak live bytes.
std::uint64_t replay_peak(const core::TaskGraph& graph,
                          const std::vector<TaskId>& order) {
  std::vector<std::vector<DataId>> touched(graph.num_tasks());
  std::vector<TaskId> last_toucher(graph.num_data(), core::kInvalidTask);
  std::vector<std::uint32_t> position(graph.num_tasks(), 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (TaskId task = 0; task < graph.num_tasks(); ++task) {
    for (DataId data : graph.inputs(task)) touched[task].push_back(data);
    for (DataId data : graph.writes(task)) {
      if (std::find(touched[task].begin(), touched[task].end(), data) ==
          touched[task].end()) {
        touched[task].push_back(data);
      }
    }
  }
  for (const TaskId task : order) {
    for (DataId data : touched[task]) {
      if (last_toucher[data] == core::kInvalidTask ||
          position[last_toucher[data]] < position[task]) {
        last_toucher[data] = task;
      }
    }
  }
  std::uint64_t live = 0;
  std::uint64_t peak = 0;
  std::vector<bool> resident(graph.num_data(), false);
  for (const TaskId task : order) {
    for (DataId data : touched[task]) {
      if (!resident[data]) {
        resident[data] = true;
        live += graph.data_size(data);
      }
    }
    peak = std::max(peak, live);
    for (DataId data : touched[task]) {
      if (last_toucher[data] == task) {
        resident[data] = false;
        live -= graph.data_size(data);
      }
    }
  }
  return peak;
}

class TreePeakMemoryTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TreePeakMemoryTest, SerialReleaseStaysUnderPostOrderBound) {
  // Random in-tree, root last: parent(i) > i, so the submission order
  // 0..N-1 writes each child's output before its parent reads it and the
  // RAW derivation yields exactly the tree edges.
  util::Rng rng(GetParam());
  const auto num_tasks = 12 + static_cast<std::uint32_t>(rng.below(28));
  std::vector<TreeNode> tree(num_tasks);
  std::vector<TaskId> parent(num_tasks, core::kInvalidTask);
  for (TaskId task = 0; task + 1 < num_tasks; ++task) {
    parent[task] = task + 1 +
                   static_cast<TaskId>(rng.below(num_tasks - task - 1));
    tree[parent[task]].children.push_back(task);
  }

  core::TaskGraphBuilder builder;
  std::vector<DataId> output(num_tasks);
  for (TaskId task = 0; task < num_tasks; ++task) {
    tree[task].bytes = 1 + rng.below(50);
    output[task] = builder.add_data(tree[task].bytes);
  }
  for (TaskId task = 0; task < num_tasks; ++task) {
    std::vector<DataId> inputs;
    if (tree[task].children.empty()) {
      inputs.push_back(output[task]);  // leaves read their own (version-0) data
    } else {
      for (TaskId child : tree[task].children) {
        inputs.push_back(output[child]);
      }
    }
    const TaskId id = builder.add_task(10.0, inputs);
    ASSERT_EQ(id, task);
    builder.set_task_writes(task, output[task]);
  }
  const core::TaskGraph graph = builder.build();

  // The derived DAG is exactly the tree: child -> parent, nothing else.
  for (TaskId task = 0; task < num_tasks; ++task) {
    const auto succs = graph.successors(task);
    if (parent[task] == core::kInvalidTask) {
      EXPECT_TRUE(succs.empty());
    } else {
      ASSERT_EQ(succs.size(), 1u);
      EXPECT_EQ(succs[0], parent[task]);
    }
  }

  // Oracle: the linear replay of the optimal post-order never exceeds
  // Liu's recursive bound.
  const TaskId root = num_tasks - 1;
  std::vector<TaskId> order;
  const std::uint64_t bound = post_order_peak(tree, root, order);
  ASSERT_EQ(order.size(), num_tasks);
  EXPECT_LE(replay_peak(graph, order), bound) << "seed " << GetParam();

  // The engine replays the same order serially without a dependency stall:
  // the post-order is topological, so the fixed-order head gate never
  // blocks and every task runs in exactly the prescribed sequence.
  sched::FixedOrderScheduler scheduler({order});
  core::Platform platform;
  platform.num_gpus = 1;
  platform.gpu_memory_bytes = graph.working_set_bytes();
  sim::EngineConfig config;
  config.seed = GetParam();
  config.pipeline_depth = 1;
  sim::RuntimeEngine engine(graph, platform, scheduler, config);
  TimelineRecorder timeline;
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&timeline);
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();
  ASSERT_TRUE(checker.ok()) << checker.report().error;
  EXPECT_EQ(metrics.per_gpu[0].tasks_executed, graph.num_tasks());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(timeline.start_us[order[i]], timeline.end_us[order[i - 1]]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePeakMemoryTest,
                         testing::Values(11, 23, 42, 77, 131, 999));

// ---------------------------------------------------------------------------
// Run-report dependencies section on a real DAG run.
// ---------------------------------------------------------------------------

TEST(DepsReport, SchemaSixSectionMatchesGraphShape) {
  const core::TaskGraph graph =
      work::make_cholesky_tasks({.n = 6, .with_dependencies = true});
  const core::Platform platform = core::make_v100_platform(2, 120 * core::kMB);
  sched::EagerScheduler scheduler;
  sim::RuntimeEngine engine(graph, platform, scheduler, {.seed = 3});
  sim::RunReportCollector collector;
  engine.add_inspector(&collector);
  engine.run();

  const sim::RunReport& report = collector.report();
  const auto& counts = graph.dependency_edge_counts();
  EXPECT_TRUE(report.dependencies.enabled);
  EXPECT_EQ(report.dependencies.total_edges, counts.total);
  EXPECT_EQ(report.dependencies.explicit_edges, counts.explicit_edges);
  EXPECT_EQ(report.dependencies.raw_edges, counts.raw);
  EXPECT_EQ(report.dependencies.war_edges, counts.war);
  EXPECT_EQ(report.dependencies.waw_edges, counts.waw);
  EXPECT_EQ(report.dependencies.critical_path_length,
            graph.critical_path_length());
  // Fault-free: every edge released exactly once and every task enabled
  // exactly once (roots in the initial-frontier events at load), nothing
  // un-retired.
  EXPECT_EQ(report.dependencies.edges_released, counts.total);
  EXPECT_EQ(report.dependencies.tasks_enabled, graph.num_tasks());
  EXPECT_EQ(report.dependencies.tasks_unretired, 0u);
  EXPECT_GE(report.dependencies.max_ready_width, 1u);
}

}  // namespace
}  // namespace mg
