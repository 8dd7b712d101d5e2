// perfbench — runs one pinned workload for a fixed time and prints its
// metrics as one JSON line (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): repetitions of the workload, each generating its
// inputs, running and checking; wall_s is the mean run() time over them
// (total over count) and setup_s the median set-up time. Traced
// (--trace 1): untraced and traced repetitions alternate; the per-layer
// metrics are medians over the traced ones, and every repetition must
// reproduce the first (untraced) one's simulated outcome exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && args.seconds > 0.0 &&
         std::find(perfbench::workload_names().begin(),
                   perfbench::workload_names().end(),
                   args.workload) != perfbench::workload_names().end();
}

/// Peak resident set of this process so far in MB (VmHWM).
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kb);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

Metrics end_to_end(const std::vector<perfbench::RepResult>& reps,
                   std::size_t passed, double first_rep_rss_mb) {
  std::vector<double> wall;
  std::vector<double> setup;
  for (const auto& rep : reps) {
    wall.push_back(rep.wall_s);
    setup.push_back(rep.setup_s);
  }
  const perfbench::SimOutcome& sim = reps.front().sim;
  const double on_time =
      sim.deadline_jobs == 0
          ? 1.0
          : static_cast<double>(sim.deadline_hits) /
                static_cast<double>(sim.deadline_jobs);
  return {
      // A mean, not a median: on a shared host a repetition's run() time
      // is bimodal (contended or not), and the median of such a sample
      // jumps between the modes while the mean follows the contended share.
      {"wall_s", {mean(wall), "s"}},
      {"setup_s", {median(setup), "s"}},
      {"peak_rss_mb", {first_rep_rss_mb, "MB"}},
      {"ok_frac",
       {static_cast<double>(passed) / static_cast<double>(reps.size()),
        "frac"}},
      {"sim_gflops", {sim.flops / (sim.makespan_us * 1e3), "GFlop/s"}},
      {"sim_transfers_mb", {static_cast<double>(sim.bytes_loaded) / 1e6, "MB"}},
      {"sim_p50_ms", {percentile(sim.latencies_us, 0.50) / 1e3, "ms"}},
      {"sim_p99_ms", {percentile(sim.latencies_us, 0.99) / 1e3, "ms"}},
      {"sim_hi_p99_ms",
       {percentile(sim.high_tier_latencies_us, 0.99) / 1e3, "ms"}},
      {"sim_on_time_frac", {on_time, "frac"}},
  };
}

/// Per-layer metrics of one traced repetition.
Metrics layers(const perfbench::RepResult& rep,
               const perfbench::Tracer& tracer) {
  auto seconds = [&](Layer layer) {
    return static_cast<double>(tracer.total(layer).total_ns) / 1e9;
  };
  auto calls = [&](Layer layer) {
    return static_cast<double>(tracer.total(layer).calls);
  };
  const perfbench::SimOutcome& sim = rep.sim;
  const double engine_self_s =
      static_cast<double>(tracer.total(Layer::kRun).self_ns) / 1e9;
  const double pops = calls(Layer::kPop);
  return {
      {"sched.pop_s", {seconds(Layer::kPop), "s"}},
      {"sched.pop_calls", {pops, "count"}},
      {"sched.pop_p50_us", {tracer.pop_latency().quantile(0.50) / 1e3, "us"}},
      {"sched.pop_p99_us", {tracer.pop_latency().quantile(0.99) / 1e3, "us"}},
      {"sched.pop_hit_frac",
       {pops > 0 ? static_cast<double>(tracer.pop_hits()) / pops : 0.0,
        "frac"}},
      {"sched.prepare_s", {seconds(Layer::kPrepare), "s"}},
      {"sched.notify_s", {seconds(Layer::kNotify), "s"}},
      {"sched.notify_calls", {calls(Layer::kNotify), "count"}},
      {"hyper.connectivity", {rep.connectivity_mb, "MB"}},
      {"sim.engine.self_s", {engine_self_s, "s"}},
      {"sim.engine.events", {static_cast<double>(sim.events), "count"}},
      {"sim.engine.self_ns_per_event",
       {engine_self_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                                  sim.events, 1)),
        "ns"}},
      {"evict.choose_s", {seconds(Layer::kEvictChoose), "s"}},
      {"evict.choose_calls", {calls(Layer::kEvictChoose), "count"}},
      {"evict.hook_s", {seconds(Layer::kEvictHook), "s"}},
      {"evict.hook_calls", {calls(Layer::kEvictHook), "count"}},
      {"check.on_event_s", {seconds(Layer::kCheck), "s"}},
      {"check.events", {static_cast<double>(rep.check_events), "count"}},
      {"report.collect_s", {seconds(Layer::kReport), "s"}},
      {"report.to_json_s", {seconds(Layer::kToJson), "s"}},
      {"report.json_bytes", {static_cast<double>(rep.json_bytes), "bytes"}},
      {"workloads.gen_s", {seconds(Layer::kGen), "s"}},
      {"sim.engine.build_s", {seconds(Layer::kEngineBuild), "s"}},
      {"serve.build_s", {seconds(Layer::kServeBuild), "s"}},
      {"sim.loads", {static_cast<double>(sim.loads), "count"}},
      {"sim.evictions", {static_cast<double>(sim.evictions), "count"}},
      {"sim.makespan_ms", {sim.makespan_us / 1e3, "ms"}},
      {"sim.jobs_fused", {static_cast<double>(sim.jobs_fused), "count"}},
      {"sim.fetch_timeouts", {static_cast<double>(sim.fetch_timeouts), "count"}},
      {"sim.hedged_fetches", {static_cast<double>(sim.hedged_fetches), "count"}},
      {"sim.eviction_vetoes",
       {static_cast<double>(sim.eviction_vetoes), "count"}},
      {"sim.jobs_shed", {static_cast<double>(sim.jobs_shed), "count"}},
  };
}

/// The per-(layer, parent) span totals of one traced repetition, to stderr.
void print_spans(const perfbench::Tracer& tracer) {
  for (std::size_t l = 0; l < perfbench::kNumLayers; ++l) {
    for (std::size_t p = 0; p <= perfbench::kNumLayers; ++p) {
      const auto layer = static_cast<Layer>(l);
      const auto parent = static_cast<Layer>(p);
      const perfbench::LayerStats& stats = tracer.under(layer, parent);
      if (stats.calls == 0) continue;
      std::fprintf(stderr,
                   "perfbench: span %-16s under %-16s %10llu calls %9.4f s "
                   "(self %.4f s)\n",
                   std::string(perfbench::layer_name(layer)).c_str(),
                   std::string(perfbench::layer_name(parent)).c_str(),
                   static_cast<unsigned long long>(stats.calls),
                   static_cast<double>(stats.total_ns) / 1e9,
                   static_cast<double>(stats.self_ns) / 1e9);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <matmul_darts|matmul_hmetis|"
                 "cholesky_dag|serve_cluster> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }

  // Repeat until the next repetition would overrun the time budget, but at
  // least three times: medians need them, and so does the traced run's
  // untraced baseline on either side of a traced repetition.
  std::vector<perfbench::RepResult> reps;
  std::vector<std::unique_ptr<perfbench::Tracer>> tracers;
  const std::int64_t start_ns = perfbench::now_ns();
  double longest_s = 0.0;
  double first_rep_rss_mb = 0.0;
  for (;;) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    tracers.push_back(traced ? std::make_unique<perfbench::Tracer>() : nullptr);
    perfbench::RepOptions options;
    options.tracer = tracers.back().get();
    const std::int64_t rep_start_ns = perfbench::now_ns();
    reps.push_back(perfbench::run_workload(args.workload, args.seed, options));
    // Later repetitions reuse the allocator's pages, so the peak of the
    // first one is the workload's own.
    if (reps.size() == 1) first_rep_rss_mb = peak_rss_mb();
    const std::int64_t now = perfbench::now_ns();
    longest_s = std::max(longest_s,
                         static_cast<double>(now - rep_start_ns) / 1e9);
    const double elapsed_s = static_cast<double>(now - start_ns) / 1e9;
    if (reps.size() >= 3 && elapsed_s + longest_s > args.seconds) break;
  }

  // Output checks: each repetition's own, then exact repetition of the
  // first one's simulated outcome and of the traced pop count.
  std::size_t passed = 0;
  const perfbench::Tracer* first_traced = nullptr;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::vector<std::string>& failures = reps[i].failures;
    if (!(reps[i].sim == reps.front().sim)) {
      failures.push_back("simulated outcome differs from repetition 0");
    }
    if (tracers[i] != nullptr) {
      if (first_traced == nullptr) first_traced = tracers[i].get();
      if (tracers[i]->total(Layer::kPop).calls !=
          first_traced->total(Layer::kPop).calls) {
        failures.push_back("pop_task call count differs between traced runs");
      }
    }
    std::fprintf(stderr, "perfbench: %s rep %zu%s: setup %.4f s, run %.4f s\n",
                 args.workload.c_str(), i,
                 tracers[i] != nullptr ? " (traced)" : "", reps[i].setup_s,
                 reps[i].wall_s);
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "perfbench: %s rep %zu: %s\n",
                   args.workload.c_str(), i, failure.c_str());
    }
    if (failures.empty()) ++passed;
  }

  Metrics metrics;
  if (!args.trace) {
    metrics = end_to_end(reps, passed, first_rep_rss_mb);
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_wall;
    std::vector<double> untraced_wall;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (tracers[i] == nullptr) {
        untraced_wall.push_back(reps[i].wall_s);
        continue;
      }
      traced_wall.push_back(reps[i].wall_s);
      for (const auto& [name, metric] : layers(reps[i], *tracers[i])) {
        metrics.emplace(name, metric);
        samples[name].push_back(metric.value);
      }
    }
    for (auto& [name, metric] : metrics) metric.value = median(samples[name]);
    metrics["trace.overhead_frac"] = {
        mean(traced_wall) / mean(untraced_wall) - 1.0, "frac"};
    print_spans(*first_traced);
  }

  const std::size_t failed = reps.size() - passed;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", reps.size(), failed);
  const char* separator = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit);
    separator = ", ";
  }
  std::printf("}}\n");
  return 0;
}
