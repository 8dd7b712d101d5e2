#include "serve/observed_run.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "analysis/trace_export.hpp"
#include "sim/engine_guard.hpp"

namespace mg::serve {

sim::RunReport RunInspectors::finish() const {
  if (!checker_.ok()) {
    std::fprintf(stderr, "invariant violation in %s: %s\n%s\n",
                 options_.context.c_str(), checker_.report().error.c_str(),
                 checker_.report().excerpt.c_str());
    std::exit(1);
  }
  return options_.collect ? collector_.report() : sim::RunReport{};
}

sim::RunReport RunInspectors::finish(const ServeResult& result) const {
  sim::RunReport report = finish();
  if (options_.collect) fill_serving_report(report, result);
  return report;
}

ObservedRun<core::RunMetrics> run_observed(sim::RuntimeEngine& engine,
                                           const RunOptions& options) {
  const RunInspectors inspectors(engine, options);
  // A braced list evaluates in order: the run, then the check.
  return {sim::run_engine_or_exit(engine, options.context),
          inspectors.finish()};
}

ObservedRun<ServeResult> run_observed(ServeEngine& engine,
                                      const RunOptions& options) {
  const RunInspectors inspectors(engine, options);
  ServeResult result = sim::run_engine_or_exit(engine, options.context);
  sim::RunReport report = inspectors.finish(result);
  return {std::move(result), std::move(report)};
}

RunOutputs::RunOutputs(std::string report_path, std::string trace_path)
    : report_path_(std::move(report_path)),
      trace_path_(std::move(trace_path)) {}

void RunOutputs::keep(sim::RunReport report) {
  if (reporting()) reports_.push_back(std::move(report));
}

void RunOutputs::keep_trace(const core::TaskGraph& graph,
                            const core::Platform& platform,
                            const sim::Trace& trace) {
  if (tracing()) {
    trace_json_ = analysis::chrome_trace_json(graph, platform, trace);
  }
}

void RunOutputs::write(const std::string& context) const {
  if (reporting() &&
      !sim::write_run_reports(reports_, context, report_path_)) {
    std::fprintf(stderr, "failed to write run report to %s\n",
                 report_path_.c_str());
    std::exit(1);
  }
  if (!trace_json_.empty() &&
      !analysis::write_chrome_trace(trace_json_, trace_path_)) {
    std::fprintf(stderr, "failed to write chrome trace to %s\n",
                 trace_path_.c_str());
    std::exit(1);
  }
}

}  // namespace mg::serve
