// Ablation: hedged remote fetches vs. parked transfers under network
// partitions.
//
// Streams a Poisson burst of matmul jobs over a 3-node cluster, then for
// every node pair injects a mid-run partition window (which heals) and runs
// two arms on identical arrivals:
//   parked — fetch timeouts off: transfers caught by the partition park at
//            the wire until the window heals, stalled jobs back the
//            admission queue up, and the tail of the burst is shed;
//   hedged — fetch deadlines armed: a timed-out fetch is hedged to an
//            alternate holder (another node's host cache, warmed by earlier
//            jobs sharing the template data), so the partition is routed
//            around instead of waited out.
// The claims under test (--check):
//   * summed over the partition sweep, the hedged arm completes strictly
//     more jobs than the parked arm;
//   * every arm passes the InvariantChecker (partition windows really block
//     transfer starts, every timeout is eventually rerouted or served,
//     network bytes are conserved including wasted duplicate deliveries);
//   * fault-free runs are byte-identical with the hedging knobs on vs. off
//     (run-report string equality) — the machinery is free until a fault
//     actually fires.
//
//   ./abl_netfaults --gpus=6 --nodes=3 --rate=400 --num-jobs=80 --check
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/locality.hpp"
#include "common/figure_harness.hpp"
#include "serve/observed_run.hpp"
#include "serve/serve_engine.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "sim/run_report.hpp"
#include "util/csv.hpp"
#include "workloads/matmul2d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "Network-fault ablation: hedged remote fetches route around a "
      "partition that parks the no-hedging arm (sheds, timeouts, hedges)");
  bench::add_standard_flags(flags, bench::kBaseFlags, /*default_gpus=*/6);
  flags.define_int("n", 8, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("num-jobs", 80, "jobs in the burst", /*min_value=*/1)
      .define_double("rate", 400.0, "Poisson arrival rate (jobs/s)",
                     {.min_exclusive = true})
      .define_int("max-in-flight", 4,
                  "admission bound on concurrently in-flight jobs")
      .define_int("max-queue", 4,
                  "admission queue bound; jobs past it are shed")
      .define_double("partition-start-ms", 8.0,
                     "partition window opens at this simulated time")
      .define_double("partition-ms", 100.0, "partition window length")
      .define_double("timeout-factor", 6.0,
                     "hedged arm: fetch deadline as a multiple of the "
                     "modeled transfer time")
      .define_int("hedges", 2, "hedged arm: hedge cap per fetch")
      .define_bool("check", false,
                   "assert the headline claim: hedged completes strictly "
                   "more jobs than parked over the partition sweep, and "
                   "fault-free runs are byte-identical with the knobs on");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  auto config = bench::config_from_flags(
      flags, "abl_netfaults",
      "hedged remote fetches vs. parked transfers under partitions");
  // The hedging claim needs a third node to reroute through; default the
  // bare invocation to the 3-node split instead of erroring out.
  if (flags.get_int("nodes") == 1) config.platform.num_nodes = 3;
  if (config.platform.num_nodes < 3) {
    std::fprintf(stderr, "bad value for --nodes: '%u' (abl_netfaults needs "
                 "at least 3)\n",
                 config.platform.num_nodes);
    return 2;
  }

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n"))}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("num-jobs"));
  std::vector<serve::JobSpec> jobs(num_jobs);

  util::CsvWriter csv(
      {"arm", "jobs_submitted", "jobs_completed", "jobs_shed",
       "throughput_jobs_per_s", "fetch_timeouts", "hedged_fetches",
       "hedges_wasted", "hedge_wasted_mb", "nodes_suspected",
       "suspicions_cleared"},
      config.output_path);
  char line[160];
  std::snprintf(line, sizeof line,
                "platform: %u GPUs over %u nodes; %u jobs at %g jobs/s, "
                "queue bound %lld",
                config.platform.num_gpus, config.platform.num_nodes, num_jobs,
                flags.get_double("rate"),
                static_cast<long long>(flags.get_int("max-queue")));
  csv.comment(line);

  struct ArmResult {
    serve::ServeResult result;
    sim::RunReport::NetworkFaults net;
    std::string report_json;
  };
  serve::RunOutputs outputs(config.run_report_path);
  // One arm: a full streamed run under `plan` with the hedging knobs set.
  // `context` keys the run report; arms that must compare byte-identical
  // share one context string.
  auto run_arm = [&](const std::string& arm, const std::string& context,
                     const sim::FaultPlan& plan, double timeout_factor,
                     std::uint32_t hedges) {
    serve::ServeConfig serve_config;
    serve_config.arrival.mode = serve::ArrivalMode::kPoisson;
    serve_config.arrival.rate_jobs_per_s = flags.get_double("rate");
    serve_config.arrival.seed = config.seed;
    serve_config.admission.max_jobs_in_flight =
        static_cast<std::uint32_t>(flags.get_int("max-in-flight"));
    serve_config.admission.max_queue_depth =
        static_cast<std::uint32_t>(flags.get_int("max-queue"));
    serve_config.engine.seed = config.seed;
    serve_config.engine.fetch_timeout_factor = timeout_factor;
    serve_config.engine.max_fetch_hedges = hedges;

    cluster::LocalityScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, config.platform, scheduler,
                              serve_config);
    sim::FaultInjector injector(plan);
    if (!plan.empty()) engine.set_fault_injector(&injector);
    auto run = serve::run_observed(
        engine, {.check = true, .collect = true, .context = context});

    ArmResult arm_result;
    arm_result.result = std::move(run.result);
    arm_result.net = run.report.network_faults;
    arm_result.report_json = sim::run_report_to_json(run.report);
    outputs.keep(std::move(run.report));

    const sim::RunReport::Serving& serving = arm_result.result.serving;
    csv.row({arm, static_cast<std::int64_t>(serving.jobs_submitted),
             static_cast<std::int64_t>(serving.jobs_completed),
             static_cast<std::int64_t>(serving.jobs_shed),
             serving.throughput_jobs_per_s,
             static_cast<std::int64_t>(arm_result.net.fetch_timeouts),
             static_cast<std::int64_t>(arm_result.net.hedged_fetches),
             static_cast<std::int64_t>(arm_result.net.hedges_wasted),
             static_cast<double>(arm_result.net.hedge_wasted_bytes) / 1e6,
             static_cast<std::int64_t>(arm_result.net.nodes_suspected),
             static_cast<std::int64_t>(arm_result.net.suspicions_cleared)});
    return arm_result;
  };

  const double timeout_factor = flags.get_double("timeout-factor");
  const auto hedge_cap = static_cast<std::uint32_t>(flags.get_int("hedges"));

  // Fault-free pair: the hedging knobs must be free until a fault fires.
  // Same context string, so any divergence is behavioral, not labeling.
  const sim::FaultPlan no_faults;
  const ArmResult base_off =
      run_arm("fault-free-off", "abl_netfaults fault-free", no_faults, 0.0, 0);
  const ArmResult base_on =
      run_arm("fault-free-hedged", "abl_netfaults fault-free", no_faults,
              timeout_factor, hedge_cap);

  // Partition sweep: one healing window per node pair, parked vs. hedged.
  const double part_start_us = flags.get_double("partition-start-ms") * 1e3;
  const double part_end_us =
      part_start_us + flags.get_double("partition-ms") * 1e3;
  std::uint64_t parked_total = 0;
  std::uint64_t hedged_total = 0;
  std::uint64_t hedged_fetches = 0;
  for (std::uint32_t src = 0; src < config.platform.num_nodes; ++src) {
    for (std::uint32_t dst = src + 1; dst < config.platform.num_nodes; ++dst) {
      sim::FaultPlan plan;
      plan.link_faults.push_back({.src = src,
                                  .dst = dst,
                                  .start_us = part_start_us,
                                  .end_us = part_end_us,
                                  .partition = true});
      const std::string pair =
          std::to_string(src) + "-" + std::to_string(dst);
      const ArmResult parked =
          run_arm("parked-" + pair, "abl_netfaults parked " + pair, plan, 0.0,
                  0);
      const ArmResult hedged =
          run_arm("hedged-" + pair, "abl_netfaults hedged " + pair, plan,
                  timeout_factor, hedge_cap);
      parked_total += parked.result.serving.jobs_completed;
      hedged_total += hedged.result.serving.jobs_completed;
      hedged_fetches += hedged.net.hedged_fetches;
    }
  }

  outputs.write("abl_netfaults");

  if (flags.get_bool("check")) {
    bool ok = true;
    if (base_on.report_json != base_off.report_json) {
      std::fprintf(stderr,
                   "CLAIM FAILED: fault-free run reports diverge with the "
                   "hedging knobs on — the machinery must be byte-free "
                   "until a fault fires\n");
      ok = false;
    }
    if (base_off.net.enabled || base_on.net.fetch_timeouts != 0) {
      std::fprintf(stderr,
                   "CLAIM FAILED: fault-free arms reported network-fault "
                   "activity\n");
      ok = false;
    }
    if (hedged_total <= parked_total) {
      std::fprintf(stderr,
                   "CLAIM FAILED: hedged completed %llu jobs over the "
                   "partition sweep, parked %llu (expected strictly more)\n",
                   static_cast<unsigned long long>(hedged_total),
                   static_cast<unsigned long long>(parked_total));
      ok = false;
    }
    if (hedged_fetches == 0) {
      std::fprintf(stderr,
                   "CLAIM FAILED: the hedged arms never hedged a fetch\n");
      ok = false;
    }
    if (!ok) return 1;
    std::printf("claim OK: hedged %llu > parked %llu jobs over the "
                "partition sweep (%llu hedges), fault-free runs "
                "byte-identical\n",
                static_cast<unsigned long long>(hedged_total),
                static_cast<unsigned long long>(parked_total),
                static_cast<unsigned long long>(hedged_fetches));
  }
  return 0;
}
