// Inspector subsystem tests: the online invariant checker (clean runs pass,
// corrupted event streams are caught with a precise diagnostic and log
// excerpt) and the run-report collector (aggregates match engine metrics,
// JSON output is schema-valid, the mirrored trace exports to Chrome JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_export.hpp"
#include "core/darts.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "sim/engine.hpp"
#include "sim/inspector.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

namespace mg {
namespace {

using core::DataId;
using core::TaskId;
using sim::InspectorEvent;
using sim::InspectorEventKind;
using sim::InvariantChecker;
using sim::RunReportCollector;

InvariantChecker::Options recording_options() {
  InvariantChecker::Options options;
  options.fail_fast = false;
  return options;
}

/// d0, d1 of 10 bytes; t0{d0}, t1{d0,d1}.
core::TaskGraph small_graph() {
  core::TaskGraphBuilder builder;
  const DataId d0 = builder.add_data(10);
  const DataId d1 = builder.add_data(10);
  builder.add_task(1.0, {d0});
  builder.add_task(1.0, {d0, d1});
  return builder.build();
}

core::Platform small_platform(std::uint64_t memory = 100) {
  core::Platform platform;
  platform.num_gpus = 1;
  platform.gpu_memory_bytes = memory;
  return platform;
}

InspectorEvent make_event(double time_us, InspectorEventKind kind,
                          core::GpuId gpu, std::uint32_t id,
                          std::uint64_t bytes = 0,
                          std::uint32_t channel = sim::kNoChannel,
                          std::uint32_t aux = 0) {
  InspectorEvent event;
  event.time_us = time_us;
  event.kind = kind;
  event.gpu = gpu;
  event.id = id;
  event.bytes = bytes;
  event.channel = channel;
  event.aux = aux;
  return event;
}

/// The online event stream of a correct single-GPU run of small_graph().
std::vector<InspectorEvent> valid_stream() {
  return {
      make_event(0.0, InspectorEventKind::kFetchStart, 0, 0, 10,
                 sim::kNoChannel, 1),
      make_event(0.0, InspectorEventKind::kTransferStart, 0, 0, 10,
                 sim::kChannelHostBus),
      make_event(1.0, InspectorEventKind::kTransferEnd, 0, 0, 10,
                 sim::kChannelHostBus),
      make_event(1.0, InspectorEventKind::kLoadComplete, 0, 0, 10),
      make_event(1.0, InspectorEventKind::kNotifyDataLoaded, 0, 0),
      make_event(1.0, InspectorEventKind::kTaskStart, 0, 0),
      make_event(2.0, InspectorEventKind::kFetchStart, 0, 1, 10,
                 sim::kNoChannel, 1),
      make_event(3.0, InspectorEventKind::kTaskEnd, 0, 0),
      make_event(3.0, InspectorEventKind::kNotifyTaskComplete, 0, 0),
      make_event(4.0, InspectorEventKind::kLoadComplete, 0, 1, 10),
      make_event(5.0, InspectorEventKind::kTaskStart, 0, 1),
      make_event(6.0, InspectorEventKind::kTaskEnd, 0, 1),
      make_event(6.0, InspectorEventKind::kNotifyTaskComplete, 0, 1),
  };
}

InvariantChecker::Report run_stream(const std::vector<InspectorEvent>& events,
                                    std::uint64_t memory = 100) {
  const core::TaskGraph graph = small_graph();
  const core::Platform platform = small_platform(memory);
  InvariantChecker checker(recording_options());
  checker.on_run_begin(graph, platform, "test");
  for (const InspectorEvent& event : events) checker.on_event(event);
  checker.on_run_end(0.0);
  return checker.report();
}

TEST(InvariantChecker, AcceptsAValidStream) {
  const auto report = run_stream(valid_stream());
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(InvariantChecker, CatchesTaskStartWithMissingInput) {
  auto events = valid_stream();
  // Evict d0 right before t1 starts (t1 reads d0 and d1).
  events.insert(events.begin() + 10,
                make_event(4.5, InspectorEventKind::kEvict, 0, 0, 10));
  const auto report = run_stream(events);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("missing input"), std::string::npos);
  EXPECT_NE(report.error.find("t=5.000us"), std::string::npos)
      << "diagnostic should pin-point the offending event: " << report.error;
  // The excerpt must show the eviction that set the violation up.
  EXPECT_NE(report.excerpt.find("evict d0"), std::string::npos)
      << report.excerpt;
}

TEST(InvariantChecker, CatchesMemoryOvercommit) {
  const core::TaskGraph graph = small_graph();
  const core::Platform platform = small_platform(/*memory=*/15);
  InvariantChecker checker(recording_options());
  checker.on_run_begin(graph, platform, "test");
  checker.on_event(make_event(0.0, InspectorEventKind::kFetchStart, 0, 0, 10,
                              sim::kNoChannel, 1));
  checker.on_event(make_event(0.1, InspectorEventKind::kFetchStart, 0, 1, 10,
                              sim::kNoChannel, 1));
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().error.find("memory bound exceeded"),
            std::string::npos);
}

TEST(InvariantChecker, CatchesOverlappingTransfersOnOneChannel) {
  const core::TaskGraph graph = small_graph();
  const core::Platform platform = small_platform();
  InvariantChecker checker(recording_options());
  checker.on_run_begin(graph, platform, "test");
  checker.on_event(make_event(0.0, InspectorEventKind::kTransferStart, 0, 0,
                              10, sim::kChannelHostBus));
  checker.on_event(make_event(0.5, InspectorEventKind::kTransferStart, 0, 1,
                              10, sim::kChannelHostBus));
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().error.find("overlapping transfers"),
            std::string::npos);
}

TEST(InvariantChecker, CatchesEvictionOfInputOfRunningTask) {
  auto events = valid_stream();
  // t0 is running between indices 5 and 7; evict its input d0 in between.
  events.insert(events.begin() + 6,
                make_event(1.5, InspectorEventKind::kEvict, 0, 0, 10));
  const auto report = run_stream(events);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("in use by the running task"),
            std::string::npos);
}

TEST(InvariantChecker, CatchesDoubleExecution) {
  auto events = valid_stream();
  events.push_back(make_event(7.0, InspectorEventKind::kTaskStart, 0, 0));
  const auto report = run_stream(events);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("started twice"), std::string::npos);
}

TEST(InvariantChecker, CatchesMissingCompletionNotification) {
  auto events = valid_stream();
  events.erase(events.begin() + 8);  // drop t0's notify_task_complete
  const auto report = run_stream(events);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("never notified"), std::string::npos);
}

TEST(InvariantChecker, CatchesNotifyLoadForAbsentData) {
  const core::TaskGraph graph = small_graph();
  const core::Platform platform = small_platform();
  InvariantChecker checker(recording_options());
  checker.on_run_begin(graph, platform, "test");
  checker.on_event(
      make_event(0.0, InspectorEventKind::kNotifyDataLoaded, 0, 0));
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().error.find("non-resident"), std::string::npos);
}

TEST(InvariantChecker, CatchesLoadWithoutFetch) {
  const core::TaskGraph graph = small_graph();
  const core::Platform platform = small_platform();
  InvariantChecker checker(recording_options());
  checker.on_run_begin(graph, platform, "test");
  checker.on_event(make_event(0.0, InspectorEventKind::kLoadComplete, 0, 0, 10));
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().error.find("without a preceding fetch"),
            std::string::npos);
}

TEST(InvariantChecker, ExcerptHoldsTheEventsLeadingUpToTheViolation) {
  InvariantChecker::Options options = recording_options();
  options.log_window = 4;
  const core::TaskGraph graph = small_graph();
  const core::Platform platform = small_platform();
  InvariantChecker checker(options);
  checker.on_run_begin(graph, platform, "test");
  std::vector<InspectorEvent> events = valid_stream();
  events.push_back(make_event(7.0, InspectorEventKind::kEvict, 0, 1, 10));
  events.push_back(make_event(8.0, InspectorEventKind::kEvict, 0, 1, 10));
  for (const InspectorEvent& event : events) checker.on_event(event);
  const auto& report = checker.report();
  EXPECT_FALSE(report.ok);
  // The window holds at most 4 lines and the last one is the bad evict.
  const auto lines = std::count(report.excerpt.begin(), report.excerpt.end(), '\n');
  EXPECT_LE(lines, 4);
  EXPECT_NE(report.excerpt.find("t=8.000us"), std::string::npos);
  // The ring wrapped several times and still renders oldest first.
  std::string expected;
  for (std::size_t i = events.size() - 4; i < events.size(); ++i) {
    expected += "  " + sim::format_inspector_event(events[i]) + "\n";
  }
  EXPECT_EQ(report.excerpt, expected);
}

TEST(InvariantChecker, FirstViolationWins) {
  const core::TaskGraph graph = small_graph();
  const core::Platform platform = small_platform();
  InvariantChecker checker(recording_options());
  checker.on_run_begin(graph, platform, "test");
  checker.on_event(make_event(0.0, InspectorEventKind::kEvict, 0, 0, 10));
  checker.on_event(make_event(1.0, InspectorEventKind::kTaskStart, 0, 5));
  checker.on_run_end(1.0);
  EXPECT_NE(checker.report().error.find("non-resident"), std::string::npos);
}

// --- Validator: edited streams, one registered test per table row ---------

using Stream = std::vector<InspectorEvent>;

struct StreamCase {
  const char* name;
  void (*edit)(Stream& events);  ///< applied to valid_stream()
  const char* expected;          ///< first violation's text; "" = valid
  std::uint64_t memory = 100;    ///< GPU memory in bytes
};

const StreamCase kStreamCases[] = {
    {"AcceptsAValidTrace", [](Stream&) {}, ""},
    {"RejectsStartWithMissingInput",
     [](Stream& events) {  // t1 needs d1 too
       events = {
           make_event(0.0, InspectorEventKind::kFetchStart, 0, 0, 10,
                      sim::kNoChannel, 1),
           make_event(1.0, InspectorEventKind::kLoadComplete, 0, 0, 10),
           make_event(2.0, InspectorEventKind::kTaskStart, 0, 1),
       };
     },
     "missing input"},
    {"RejectsMemoryBoundViolation",
     [](Stream&) {},  // holds both 10-byte data at once
     "memory bound", 15},
    {"RejectsDoubleLoad",
     [](Stream& events) {  // d0 fetched again while resident
       events.insert(events.begin() + 5,
                     make_event(1.0, InspectorEventKind::kFetchStart, 0, 0, 10,
                                sim::kNoChannel, 1));
     },
     "already-resident"},
    {"RejectsEvictionOfAbsentData",
     [](Stream& events) {
       events.push_back(make_event(7.0, InspectorEventKind::kEvict, 0, 1, 10));
       events.push_back(make_event(8.0, InspectorEventKind::kEvict, 0, 1, 10));
     },
     "non-resident"},
    {"RejectsOverlappingTasksOnOneGpu",
     [](Stream& events) {  // t1 starts while t0 still runs
       events = {
           make_event(0.0, InspectorEventKind::kFetchStart, 0, 0, 10,
                      sim::kNoChannel, 1),
           make_event(0.0, InspectorEventKind::kFetchStart, 0, 1, 10,
                      sim::kNoChannel, 1),
           make_event(1.0, InspectorEventKind::kLoadComplete, 0, 0, 10),
           make_event(2.0, InspectorEventKind::kLoadComplete, 0, 1, 10),
           make_event(3.0, InspectorEventKind::kTaskStart, 0, 0),
           make_event(4.0, InspectorEventKind::kTaskStart, 0, 1),
       };
     },
     "two tasks"},
    {"RejectsEndOfTaskNotRunning",
     [](Stream& events) {
       events = {make_event(1.0, InspectorEventKind::kTaskEnd, 0, 0)};
     },
     "was not running"},
    {"RejectsMissingExecution",
     [](Stream& events) { events.resize(9); },  // only t0 ran
     "executed 0 times"},
    {"RejectsTimeGoingBackwards",
     [](Stream& events) { events[5].time_us = 0.5; },
     "backwards"},
    {"RejectsUnknownGpu",
     [](Stream& events) {
       events = {make_event(0.0, InspectorEventKind::kFetchStart, 7, 0, 10,
                            sim::kNoChannel, 1)};
     },
     "unknown gpu"},
    {"PeerLoadAddsResidency",
     [](Stream& events) { events[9].aux = 1; },  // d1 arrives via NVLink
     ""},
    {"WriteBackEventsAreNeutral",
     [](Stream& events) {
       events.push_back(
           make_event(6.0, InspectorEventKind::kWriteBackStart, 0, 1, 10));
       events.push_back(
           make_event(7.0, InspectorEventKind::kWriteBackEnd, 0, 1, 10));
     },
     ""},
};

class StreamCaseTest : public testing::Test {
 public:
  explicit StreamCaseTest(const StreamCase& row) : row_(row) {}

  void TestBody() override {
    Stream events = valid_stream();
    row_.edit(events);
    const auto report = run_stream(events, row_.memory);
    if (*row_.expected == '\0') {
      EXPECT_TRUE(report.ok) << report.error;
    } else {
      EXPECT_FALSE(report.ok);
      EXPECT_NE(report.error.find(row_.expected), std::string::npos)
          << report.error;
    }
  }

 private:
  const StreamCase& row_;
};

[[maybe_unused]] const bool kStreamCasesRegistered = [] {
  for (const StreamCase& row : kStreamCases) {
    testing::RegisterTest("Validator", row.name, nullptr, nullptr, __FILE__,
                          __LINE__, [&row]() -> testing::Test* {
                            return new StreamCaseTest(row);
                          });
  }
  return true;
}();

// --- Online checking against the real engine ------------------------------

template <typename SchedulerT, typename... Args>
void expect_clean_run(const core::TaskGraph& graph,
                      const core::Platform& platform, Args&&... args) {
  SchedulerT scheduler(std::forward<Args>(args)...);
  sim::RuntimeEngine engine(graph, platform, scheduler);
  InvariantChecker checker(recording_options());
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error << "\n"
                            << checker.report().excerpt;
  EXPECT_GT(checker.events_checked(), 0u);
  std::uint64_t executed = 0;
  for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
  EXPECT_EQ(executed, graph.num_tasks());
}

TEST(OnlineChecking, EagerOnTightMemory) {
  const auto graph = work::make_matmul_2d({.n = 8, .data_bytes = 14 * core::kMB});
  expect_clean_run<sched::EagerScheduler>(graph,
                                          core::make_v100_platform(2, 100 * core::kMB));
}

TEST(OnlineChecking, DmdaWithPrefetchAndOutputs) {
  const auto graph = work::make_cholesky_tasks({.n = 8});
  expect_clean_run<sched::DmdaScheduler>(graph,
                                         core::make_v100_platform(2, 150 * core::kMB));
}

TEST(OnlineChecking, DartsLufWithNvlink) {
  const auto graph = work::make_matmul_2d({.n = 8, .data_bytes = 14 * core::kMB});
  core::Platform platform = core::make_v100_platform(2, 100 * core::kMB);
  platform.nvlink_enabled = true;
  expect_clean_run<core::DartsScheduler>(
      graph, platform, core::DartsOptions{.use_luf = true});
}

TEST(OnlineChecking, HfpOnSparse) {
  const auto graph =
      work::make_sparse_matmul({.n = 20, .keep_fraction = 0.1, .seed = 3});
  expect_clean_run<sched::HfpScheduler>(graph,
                                        core::make_v100_platform(2, 120 * core::kMB));
}

// --- Run report collector -------------------------------------------------

TEST(RunReport, AggregatesMatchEngineMetrics) {
  const auto graph = work::make_matmul_2d({.n = 8, .data_bytes = 14 * core::kMB});
  const core::Platform platform = core::make_v100_platform(2, 100 * core::kMB);
  sched::DmdaScheduler scheduler;
  sim::RuntimeEngine engine(graph, platform, scheduler);
  RunReportCollector collector;
  engine.add_inspector(&collector);
  const core::RunMetrics metrics = engine.run();

  const sim::RunReport& report = collector.report();
  EXPECT_EQ(report.scheduler, scheduler.name());
  EXPECT_EQ(report.num_gpus, 2u);
  EXPECT_DOUBLE_EQ(report.makespan_us, metrics.makespan_us);
  ASSERT_EQ(report.per_gpu.size(), metrics.per_gpu.size());
  for (std::size_t gpu = 0; gpu < report.per_gpu.size(); ++gpu) {
    EXPECT_EQ(report.per_gpu[gpu].tasks_executed,
              metrics.per_gpu[gpu].tasks_executed);
    EXPECT_EQ(report.per_gpu[gpu].loads, metrics.per_gpu[gpu].loads);
    EXPECT_EQ(report.per_gpu[gpu].evictions, metrics.per_gpu[gpu].evictions);
    EXPECT_EQ(report.per_gpu[gpu].eviction_policy, "LRU");
    EXPECT_GT(report.per_gpu[gpu].peak_committed_bytes, 0u);
    EXPECT_LE(report.per_gpu[gpu].peak_committed_bytes,
              platform.gpu_memory_bytes);
  }
  // The host bus channel must be reported with a sane occupancy profile.
  ASSERT_FALSE(report.channels.empty());
  const auto host = std::find_if(
      report.channels.begin(), report.channels.end(),
      [](const auto& channel) { return channel.name == "host-bus"; });
  ASSERT_NE(host, report.channels.end());
  EXPECT_GT(host->transfers, 0u);
  EXPECT_GT(host->occupancy, 0.0);
  EXPECT_LE(host->occupancy, 1.0 + 1e-9);
  for (double bucket : host->occupancy_buckets) {
    EXPECT_GE(bucket, 0.0);
    EXPECT_LE(bucket, 1.0 + 1e-9);
  }
  // DMDA pushes prefetches: both fetch classes must be populated.
  EXPECT_GT(report.prefetch.demand_fetches + report.prefetch.prefetch_fetches,
            0u);
  EXPECT_GE(report.prefetch.hit_rate, 0.0);
  EXPECT_LE(report.prefetch.hit_rate, 1.0);
}

TEST(RunReport, JsonIsSchemaValid) {
  const auto graph = work::make_matmul_2d({.n = 6, .data_bytes = 14 * core::kMB});
  const core::Platform platform = core::make_v100_platform(2, 100 * core::kMB);
  core::DartsScheduler scheduler{core::DartsOptions{.use_luf = true}};
  sim::RuntimeEngine engine(graph, platform, scheduler);
  RunReportCollector collector({.context = "unit-test", .occupancy_buckets = 8,
                                .collect_trace = true});
  engine.add_inspector(&collector);
  engine.run();

  const std::string json = sim::run_report_to_json(collector.report());
  const auto parsed = util::json::parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const auto& root = *parsed;
  ASSERT_TRUE(root.is_object());

  const auto* version = root.find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->as_number(), sim::RunReport::kSchemaVersion);
  ASSERT_NE(root.find("scheduler"), nullptr);
  EXPECT_EQ(root.find("scheduler")->as_string(), scheduler.name());
  EXPECT_EQ(root.find("context")->as_string(), "unit-test");

  const auto* platform_obj = root.find("platform");
  ASSERT_NE(platform_obj, nullptr);
  EXPECT_EQ(platform_obj->find("num_gpus")->as_number(), 2.0);
  EXPECT_FALSE(platform_obj->find("nvlink")->as_bool());

  for (const char* key : {"makespan_us", "total_flops", "achieved_gflops"}) {
    ASSERT_NE(root.find(key), nullptr) << key;
    EXPECT_GT(root.find(key)->as_number(), 0.0) << key;
  }

  const auto* per_gpu = root.find("per_gpu");
  ASSERT_NE(per_gpu, nullptr);
  ASSERT_TRUE(per_gpu->is_array());
  ASSERT_EQ(per_gpu->as_array().size(), 2u);
  for (const auto& gpu : per_gpu->as_array()) {
    for (const char* key :
         {"gpu", "tasks_executed", "busy_us", "loads", "peer_loads",
          "bytes_loaded", "evictions", "peak_committed_bytes"}) {
      ASSERT_NE(gpu.find(key), nullptr) << key;
      EXPECT_TRUE(gpu.find(key)->is_number()) << key;
    }
    EXPECT_EQ(gpu.find("eviction_policy")->as_string(), "DARTS+LUF");
  }

  const auto* balance = root.find("load_balance");
  ASSERT_NE(balance, nullptr);
  EXPECT_GE(balance->find("busy_imbalance")->as_number(), 1.0 - 1e-9);

  const auto* channels = root.find("channels");
  ASSERT_NE(channels, nullptr);
  ASSERT_TRUE(channels->is_array());
  ASSERT_FALSE(channels->as_array().empty());
  for (const auto& channel : channels->as_array()) {
    ASSERT_NE(channel.find("name"), nullptr);
    ASSERT_NE(channel.find("occupancy_buckets"), nullptr);
    EXPECT_EQ(channel.find("occupancy_buckets")->as_array().size(), 8u);
  }

  ASSERT_NE(root.find("prefetch"), nullptr);
  ASSERT_NE(root.find("evictions_by_policy"), nullptr);
  EXPECT_TRUE(root.find("evictions_by_policy")->is_object());
}

TEST(RunReport, FileWithMultipleRunsParses) {
  const auto graph = work::make_matmul_2d({.n = 5, .data_bytes = 14 * core::kMB});
  const core::Platform platform = core::make_v100_platform(1, 100 * core::kMB);
  std::vector<sim::RunReport> reports;
  for (int rep = 0; rep < 2; ++rep) {
    sched::EagerScheduler scheduler;
    sim::RuntimeEngine engine(graph, platform, scheduler);
    RunReportCollector collector;
    engine.add_inspector(&collector);
    engine.run();
    reports.push_back(collector.report());
  }
  const std::string path =
      testing::TempDir() + "/memsched_run_report_test.json";
  ASSERT_TRUE(sim::write_run_reports(reports, "test \"ctx\"", path));

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = util::json::parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("context")->as_string(), "test \"ctx\"");
  ASSERT_NE(parsed->find("runs"), nullptr);
  EXPECT_EQ(parsed->find("runs")->as_array().size(), 2u);
  std::remove(path.c_str());
}

TEST(RunReport, MirroredTraceExportsToChromeJson) {
  const auto graph = work::make_matmul_2d({.n = 6, .data_bytes = 14 * core::kMB});
  const core::Platform platform = core::make_v100_platform(2, 100 * core::kMB);
  sched::DmdaScheduler scheduler;
  sim::RuntimeEngine engine(graph, platform, scheduler);
  RunReportCollector collector;
  engine.add_inspector(&collector);
  engine.run();
  ASSERT_FALSE(collector.trace().events.empty());

  const std::string path = testing::TempDir() + "/memsched_chrome_test.json";
  ASSERT_TRUE(
      analysis::export_chrome_trace(graph, platform, collector.trace(), path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = util::json::parse(buffer.str());
  ASSERT_TRUE(parsed.has_value()) << "chrome trace is not valid JSON";
  std::remove(path.c_str());
}

TEST(RunReport, CollectorAndCheckerComposeOnOneRun) {
  const auto graph = work::make_cholesky_tasks({.n = 8});
  const core::Platform platform = core::make_v100_platform(2, 150 * core::kMB);
  core::DartsScheduler scheduler{core::DartsOptions{.use_luf = true}};
  sim::RuntimeEngine engine(graph, platform, scheduler);
  InvariantChecker checker(recording_options());
  RunReportCollector collector;
  engine.add_inspector(&checker);
  engine.add_inspector(&collector);
  engine.run();
  EXPECT_TRUE(checker.ok()) << checker.report().error;
  EXPECT_GT(collector.report().makespan_us, 0.0);
  // Both saw the same stream.
  EXPECT_GT(checker.events_checked(), 0u);
}

}  // namespace
}  // namespace mg
