// One checked, reported run for the driver binaries (bench/, examples/).
//
// A driver runs its engine, a sim::RuntimeEngine or a ServeEngine, with the
// inspectors it asks for: a recording sim::InvariantChecker, then a
// sim::RunReportCollector. The engine runs or the driver exits 3
// (sim::run_engine_or_exit); a violation prints the checker's error and
// excerpt and exits 1; the collector's report of a served run is finished
// by fill_serving_report. RunOutputs keeps what --run-report and
// --chrome-trace ask for and writes it once, exiting 1 when it cannot.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "sim/trace.hpp"

namespace mg::serve {

struct RunOptions {
  bool check = false;    ///< attach the checker
  bool collect = false;  ///< attach the collector
  bool trace = false;    ///< the collector also mirrors the trace
  std::string context;   ///< the report's context; names an engine failure
};

/// The inspectors of one run, attached on construction. A driver that runs
/// the engine itself (run_figure's parallel sweep reports engine failures
/// after joining its workers) uses them directly; the others run_observed.
class RunInspectors {
 public:
  template <class Engine>
  RunInspectors(Engine& engine, RunOptions options)
      : options_(std::move(options)),
        checker_({.fail_fast = false}),
        collector_({.context = options_.context,
                    .collect_trace = options_.trace}) {
    if (options_.check) engine.add_inspector(&checker_);
    if (options_.collect) engine.add_inspector(&collector_);
  }

  RunInspectors(const RunInspectors&) = delete;
  RunInspectors& operator=(const RunInspectors&) = delete;

  /// After the run: exits 1 on a violation, else returns the collector's
  /// report (empty without one), finished for a served run.
  [[nodiscard]] sim::RunReport finish() const;
  [[nodiscard]] sim::RunReport finish(const ServeResult& result) const;

  [[nodiscard]] const sim::Trace& trace() const { return collector_.trace(); }

 private:
  RunOptions options_;
  sim::InvariantChecker checker_;
  sim::RunReportCollector collector_;
};

template <class Result>
struct ObservedRun {
  Result result;
  sim::RunReport report;  ///< empty without RunOptions::collect
};

/// Runs `engine` with the inspectors `options` asks for, or exits: 3 on an
/// engine failure, 1 on an invariant violation.
ObservedRun<core::RunMetrics> run_observed(sim::RuntimeEngine& engine,
                                           const RunOptions& options);
ObservedRun<ServeResult> run_observed(ServeEngine& engine,
                                      const RunOptions& options);

/// A driver's --run-report (every kept report, as one document) and
/// --chrome-trace (the last kept trace); an empty path keeps nothing.
class RunOutputs {
 public:
  explicit RunOutputs(std::string report_path, std::string trace_path = "");

  [[nodiscard]] bool reporting() const { return !report_path_.empty(); }
  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }

  void keep(sim::RunReport report);
  void keep_trace(const core::TaskGraph& graph,
                  const core::Platform& platform, const sim::Trace& trace);

  /// Writes the reports under `context`, then the trace if one was kept;
  /// exits 1 when a file cannot be written.
  void write(const std::string& context) const;

 private:
  std::string report_path_;
  std::string trace_path_;
  std::vector<sim::RunReport> reports_;
  std::string trace_json_;
};

}  // namespace mg::serve
