// Randomized differential test harness: ~200 random (graph, scheduler)
// combinations run under the online invariant checker. Every scheduler must
// produce a violation-free run that executes the identical task set, and
// the realized load counts must respect the eviction-free bounds of
// analysis/bounds.hpp. Rounds alternate between the single-node platform
// and a 2-node cluster topology, so the remote-fetch/host-cache machinery
// is swept by the same invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "core/darts.hpp"
#include "core/platform.hpp"
#include "core/task_graph.hpp"
#include "sched/dmda.hpp"
#include "sched/eager.hpp"
#include "sched/hfp.hpp"
#include "serve/serve_engine.hpp"
#include "sim/engine.hpp"
#include "sim/errors.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "sim/invariant_checker.hpp"
#include "sim/run_report.hpp"
#include "slo/tier_policy.hpp"
#include "util/rng.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/layered_dag.hpp"
#include "workloads/random_bipartite.hpp"

namespace mg {
namespace {

using core::TaskId;

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

/// Draws a random task/data configuration. Varies the task count, the data
/// pool (shared-data density follows from tasks-per-data), the input degree
/// and the GPU count.
work::RandomBipartiteParams draw_params(util::Rng& rng, std::uint64_t seed) {
  work::RandomBipartiteParams params;
  params.num_tasks = 40 + static_cast<std::uint32_t>(rng.below(81));
  params.num_data = 12 + static_cast<std::uint32_t>(rng.below(21));
  params.min_inputs = 1;
  params.max_inputs =
      2 + static_cast<std::uint32_t>(rng.below(3));  // 2..4: density knob
  params.data_bytes = 10 + rng.below(91);            // 10..100 bytes
  params.task_flops = 1e6;
  params.seed = seed;
  return params;
}

/// Memory between "barely fits one task" and "fits about half the data", so
/// eviction, stalled fetches and prefetch races are all exercised.
std::uint64_t draw_memory(util::Rng& rng, const core::TaskGraph& graph,
                          const work::RandomBipartiteParams& params) {
  const std::uint64_t floor_bytes = graph.max_task_footprint();
  const std::uint64_t half_all = params.data_bytes * params.num_data / 2;
  const std::uint64_t ceiling = std::max(floor_bytes + 1, half_all);
  return floor_bytes + rng.below(ceiling - floor_bytes + 1) + 8;
}

TEST(Differential, RandomGraphsAcrossSchedulersStayInvariantFree) {
  constexpr int kGraphs = 50;  // x4 schedulers = 200 checked runs
  util::Rng rng(0xd1ffe7e57ULL);
  std::uint64_t runs_checked = 0;

  for (int round = 0; round < kGraphs; ++round) {
    const work::RandomBipartiteParams params =
        draw_params(rng, 1000 + static_cast<std::uint64_t>(round));
    const core::TaskGraph graph = work::make_random_bipartite(params);
    const std::uint32_t num_gpus = 1 + static_cast<std::uint32_t>(rng.below(4));

    core::Platform platform;
    platform.num_gpus = num_gpus;
    platform.gpu_memory_bytes = draw_memory(rng, graph, params);
    platform.nvlink_enabled = (round % 5 == 0) && num_gpus > 1;
    // Odd rounds run the same draw on a 2-node cluster, exercising the
    // network links, remote fetches and per-node host caches under the
    // identical invariant sweep.
    platform.num_nodes = (round % 2 == 1 && num_gpus >= 2) ? 2 : 1;
    if (platform.is_cluster() && round % 4 == 1) {
      // Tight host cache on some rounds so eviction/refetch paths fire too.
      platform.host_memory_bytes = params.data_bytes * 4;
    }

    // Baseline facts every scheduler must agree on.
    const std::uint64_t loads_floor = analysis::min_loads_lower_bound(graph);
    const std::uint64_t eviction_free_cap =
        analysis::eviction_free_loads_upper_bound(graph, num_gpus);

    for (SchedulerCase& entry : make_schedulers()) {
      SCOPED_TRACE("round " + std::to_string(round) + " scheduler " +
                   entry.label + " gpus " + std::to_string(num_gpus) +
                   " mem " + std::to_string(platform.gpu_memory_bytes));

      sim::EngineConfig config;
      config.seed = 7 + static_cast<std::uint64_t>(round);
      sim::RuntimeEngine engine(graph, platform, *entry.scheduler, config);
      sim::InvariantChecker checker({.fail_fast = false});
      engine.add_inspector(&checker);
      const core::RunMetrics metrics = engine.run();
      ++runs_checked;

      ASSERT_TRUE(checker.ok())
          << checker.report().error << "\nlast events:\n"
          << checker.report().excerpt;
      EXPECT_GT(checker.events_checked(), 0u);

      // Identical completion set: every task exactly once (the checker's
      // end-of-run check proves exactly-once; here we confirm the totals
      // line up with the metrics the engine reports).
      std::uint64_t executed = 0;
      std::uint64_t loads = 0;
      std::uint64_t evictions = 0;
      for (const auto& gpu : metrics.per_gpu) {
        executed += gpu.tasks_executed;
        loads += gpu.loads + gpu.peer_loads;
        evictions += gpu.evictions;
      }
      EXPECT_EQ(executed, graph.num_tasks());

      // Load-volume sanity against the analytical bounds.
      EXPECT_GE(loads, loads_floor);
      if (evictions == 0) {
        EXPECT_LE(loads, eviction_free_cap)
            << "an eviction-free run loaded some data twice on one GPU";
      }
    }
  }
  EXPECT_EQ(runs_checked, static_cast<std::uint64_t>(kGraphs) * 4);
}

TEST(Differential, SeededFaultPlansDegradeGracefullyAcrossSchedulers) {
  // Recovery-path differential sweep: every scheduler must absorb seeded
  // fault plans (GPU losses, flaky transfers, capacity shocks) with zero
  // invariant violations and every task completing on a surviving GPU.
  // 30 rounds x 4 schedulers = 120 faulted runs; rounds rotate through the
  // proactive fault-tolerance policies (checkpoint interval / fraction,
  // hot-data replication) so their recovery paths are swept too. On
  // failure the SCOPED_TRACE names the offending round/seed so the plan
  // can be replayed.
  constexpr int kGraphs = 30;
  util::Rng rng(0xfa17ed5eedULL);
  std::uint64_t runs_checked = 0;

  for (int round = 0; round < kGraphs; ++round) {
    const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(round);
    const work::RandomBipartiteParams params = draw_params(rng, seed);
    const core::TaskGraph graph = work::make_random_bipartite(params);
    const std::uint32_t num_gpus =
        2 + static_cast<std::uint32_t>(rng.below(3));  // need a survivor

    core::Platform platform;
    platform.num_gpus = num_gpus;
    platform.gpu_memory_bytes = draw_memory(rng, graph, params);
    platform.nvlink_enabled = (round % 4 == 0);
    // Odd rounds split the GPUs over two nodes and rotate link faults
    // (degradations and healing partitions) into the drawn plans, with the
    // fetch-timeout detector armed so hedging/suspicion recovery is swept.
    platform.num_nodes = (round % 2 == 1) ? 2 : 1;

    sim::RandomFaultOptions fault_options;
    fault_options.num_gpus = num_gpus;
    fault_options.num_nodes = platform.num_nodes;
    fault_options.allow_link_faults = platform.num_nodes > 1;
    // Rough makespan scale of these graphs under the default platform, so
    // losses/shocks land while work is still in flight.
    fault_options.horizon_us = 2000.0;
    fault_options.gpu_memory_bytes = platform.gpu_memory_bytes;
    const sim::FaultPlan plan =
        sim::make_random_fault_plan(seed, fault_options);
    ASSERT_TRUE(plan.validate(num_gpus, platform.num_nodes).empty())
        << plan.validate(num_gpus, platform.num_nodes);

    for (SchedulerCase& entry : make_schedulers()) {
      SCOPED_TRACE("round " + std::to_string(round) + " fault seed " +
                   std::to_string(seed) + " scheduler " + entry.label +
                   " gpus " + std::to_string(num_gpus) + " mem " +
                   std::to_string(platform.gpu_memory_bytes) + " plan " +
                   sim::fault_plan_to_json(plan));

      sim::EngineConfig config;
      config.seed = 7 + static_cast<std::uint64_t>(round);
      if (round % 3 == 1) config.checkpoint_interval_us = 40.0;
      if (round % 3 == 2) config.checkpoint_fraction = 0.5;
      config.replicate_hot = (round % 2 == 1);
      if (platform.num_nodes > 1) {
        config.fetch_timeout_factor = 4.0;
        config.max_fetch_hedges = 2;
        if (round % 6 == 3) config.suspicion_confirm_window_us = 400.0;
        if (round % 4 == 1) config.retry_jitter = 0.25;
      }
      sim::RuntimeEngine engine(graph, platform, *entry.scheduler, config);
      sim::FaultInjector injector(plan);
      engine.set_fault_injector(&injector);
      sim::InvariantChecker checker({.fail_fast = false});
      engine.add_inspector(&checker);

      core::RunMetrics metrics;
      try {
        metrics = engine.run();
      } catch (const sim::EngineError& error) {
        ADD_FAILURE() << "engine failure under faults: " << error.what();
        continue;
      }
      ++runs_checked;

      ASSERT_TRUE(checker.ok())
          << checker.report().error << "\nlast events:\n"
          << checker.report().excerpt;

      // Every task completes exactly once, on surviving GPUs only.
      std::uint64_t executed = 0;
      for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
      EXPECT_EQ(executed, graph.num_tasks());
      // Losses scripted past the (scheduler-dependent) makespan never fire.
      // When the suspicion detector is armed for escalation, a never-served
      // fetch may add one whole-node teardown on top of the scripted plan.
      const std::uint32_t loss_cap =
          static_cast<std::uint32_t>(plan.gpu_losses.size()) +
          (config.suspicion_confirm_window_us > 0.0 ? num_gpus : 0);
      EXPECT_LE(metrics.faults.gpu_losses, loss_cap);
    }
  }
  EXPECT_EQ(runs_checked, static_cast<std::uint64_t>(kGraphs) * 4);
}

TEST(Differential, DagWorkloadsAcrossSchedulersStayInvariantFree) {
  // Dependency-gated differential sweep: random layered DAGs (explicit
  // edges, and on even rounds derived RAW/WAR/WAW on top) plus the Cholesky
  // tile DAG, across every scheduler on 1- and 2-node topologies. Each run
  // must be violation-free — the checker enforces the predecessor-retirement
  // start gate and released-edge conservation — and complete the identical
  // task set.
  constexpr int kRounds = 20;
  util::Rng rng(0xdac5eedULL);
  std::uint64_t runs_checked = 0;

  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = 3000 + static_cast<std::uint64_t>(round);
    core::TaskGraph graph;
    if (round % 4 == 3) {
      graph = work::make_cholesky_tasks(
          {.n = 4 + static_cast<std::uint32_t>(rng.below(5)),
           .tile_elems = 4,  // 64-byte tiles: pressure comes from the counts
           .with_dependencies = true});
    } else {
      graph = work::make_layered_dag(
          {.num_layers = 3 + static_cast<std::uint32_t>(rng.below(3)),
           .tasks_per_layer = 5 + static_cast<std::uint32_t>(rng.below(10)),
           .num_data = 10 + static_cast<std::uint32_t>(rng.below(12)),
           .min_inputs = 1,
           .max_inputs = 3,
           .max_preds = 1 + static_cast<std::uint32_t>(rng.below(3)),
           .with_writes = (round % 2 == 0),
           .data_bytes = 10 + rng.below(91),
           .task_flops = 1e6,
           .seed = seed});
    }
    ASSERT_TRUE(graph.has_dependencies());
    const std::uint32_t num_gpus =
        1 + static_cast<std::uint32_t>(rng.below(4));

    core::Platform platform;
    platform.num_gpus = num_gpus;
    const std::uint64_t floor_bytes = graph.max_task_footprint();
    platform.gpu_memory_bytes =
        floor_bytes + rng.below(graph.working_set_bytes() - floor_bytes + 1) +
        8;
    platform.nvlink_enabled = (round % 5 == 0) && num_gpus > 1;
    platform.num_nodes = (round % 2 == 1 && num_gpus >= 2) ? 2 : 1;

    for (SchedulerCase& entry : make_schedulers()) {
      SCOPED_TRACE("round " + std::to_string(round) + " scheduler " +
                   entry.label + " gpus " + std::to_string(num_gpus) +
                   " nodes " + std::to_string(platform.num_nodes) + " mem " +
                   std::to_string(platform.gpu_memory_bytes));

      sim::EngineConfig config;
      config.seed = 11 + static_cast<std::uint64_t>(round);
      sim::RuntimeEngine engine(graph, platform, *entry.scheduler, config);
      sim::InvariantChecker checker({.fail_fast = false});
      engine.add_inspector(&checker);
      const core::RunMetrics metrics = engine.run();
      ++runs_checked;

      ASSERT_TRUE(checker.ok())
          << checker.report().error << "\nlast events:\n"
          << checker.report().excerpt;
      EXPECT_GT(checker.events_checked(), 0u);

      std::uint64_t executed = 0;
      for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
      EXPECT_EQ(executed, graph.num_tasks());
    }
  }
  EXPECT_EQ(runs_checked, static_cast<std::uint64_t>(kRounds) * 4);
}

TEST(Differential, OccupancyConfigsAcrossSchedulersStayInvariantFree) {
  // GPU-sharing differential sweep: the random-bipartite draw, re-annotated
  // with mixed warp footprints (including some whole-device tasks), run
  // across every scheduler while rounds rotate the occupancy config —
  // threshold below/at/above 1.0, tiny and roomy warp budgets, and a
  // sharing-off control round. Every run must be violation-free (the
  // checker enforces the admission gate and the warp budget) and complete
  // the identical task set.
  constexpr int kRounds = 20;
  util::Rng rng(0x0ccc0feedULL);
  std::uint64_t runs_checked = 0;
  // Rotation: exclusive control, conservative, exactly-full, oversubscribed.
  const double thresholds[] = {0.0, 0.6, 1.0, 1.5};

  for (int round = 0; round < kRounds; ++round) {
    const work::RandomBipartiteParams params =
        draw_params(rng, 9000 + static_cast<std::uint64_t>(round));
    const core::TaskGraph plain = work::make_random_bipartite(params);
    const std::uint32_t num_gpus =
        1 + static_cast<std::uint32_t>(rng.below(4));
    const std::uint32_t warps_per_gpu =
        4 + static_cast<std::uint32_t>(rng.below(13));

    // Re-build the draw with warp annotations: mixed small footprints and
    // ~1 in 5 unspecified (whole device), so admission, clamping and the
    // idle-GPU escape hatch are all exercised.
    core::TaskGraphBuilder builder;
    for (core::DataId data = 0; data < plain.num_data(); ++data) {
      builder.add_data(plain.data_size(data), plain.data_label(data));
    }
    for (TaskId task = 0; task < plain.num_tasks(); ++task) {
      const std::vector<core::DataId> inputs(plain.inputs(task).begin(),
                                             plain.inputs(task).end());
      const TaskId id = builder.add_task(plain.task_flops(task), inputs,
                                         plain.task_label(task));
      if (rng.below(5) != 0) {
        builder.set_task_warps(
            id, 1 + static_cast<std::uint32_t>(rng.below(2 * warps_per_gpu)));
      }
    }
    const core::TaskGraph graph = builder.build();

    core::Platform platform;
    platform.num_gpus = num_gpus;
    platform.gpu_memory_bytes = draw_memory(rng, graph, params);
    platform.sm_count = 1;
    platform.warps_per_sm = warps_per_gpu;
    platform.nvlink_enabled = (round % 5 == 0) && num_gpus > 1;

    for (SchedulerCase& entry : make_schedulers()) {
      SCOPED_TRACE("round " + std::to_string(round) + " scheduler " +
                   entry.label + " gpus " + std::to_string(num_gpus) +
                   " warps " + std::to_string(warps_per_gpu) + " threshold " +
                   std::to_string(thresholds[round % 4]) + " mem " +
                   std::to_string(platform.gpu_memory_bytes));

      sim::EngineConfig config;
      config.seed = 13 + static_cast<std::uint64_t>(round);
      config.occupancy_threshold = thresholds[round % 4];
      sim::RuntimeEngine engine(graph, platform, *entry.scheduler, config);
      sim::InvariantChecker checker({.fail_fast = false});
      engine.add_inspector(&checker);
      const core::RunMetrics metrics = engine.run();
      ++runs_checked;

      ASSERT_TRUE(checker.ok())
          << checker.report().error << "\nlast events:\n"
          << checker.report().excerpt;
      EXPECT_GT(checker.events_checked(), 0u);

      std::uint64_t executed = 0;
      for (const auto& gpu : metrics.per_gpu) executed += gpu.tasks_executed;
      EXPECT_EQ(executed, graph.num_tasks());
    }
  }
  EXPECT_EQ(runs_checked, static_cast<std::uint64_t>(kRounds) * 4);
}

/// Serving template for the SLO sweep: 4 data of 10 bytes, 6 tasks of 5 us
/// reading two neighbouring data each (the test_serve idiom on the
/// 1 byte/us, 1e-3 gflops test platform).
core::TaskGraph make_serving_template() {
  core::TaskGraphBuilder builder;
  std::vector<core::DataId> data;
  for (int i = 0; i < 4; ++i) {
    data.push_back(builder.add_data(10, "d" + std::to_string(i)));
  }
  for (TaskId t = 0; t < 6; ++t) {
    builder.add_task(5.0, {data[t % 4], data[(t + 1) % 4]},
                     "t" + std::to_string(t));
  }
  return builder.build();
}

TEST(Differential, SloServingConfigsAcrossSchedulersStayInvariantFree) {
  // SLO/batching differential sweep: randomized tier counts, batching
  // knobs (fusion window, batch cap, marginal compute), eviction
  // protection, anti-starvation aging and admission limits, streamed
  // across every scheduler under the online invariant checker. Every run
  // must be violation-free and retire every job exactly once, and each
  // round's batching-off control — the identical config with the master
  // switch off but every knob still set — must serialize byte-identically
  // to a config that never heard of SLO.
  constexpr int kRounds = 12;
  util::Rng rng(0x510ba7cedULL);
  std::uint64_t runs_checked = 0;
  const std::vector<core::TaskGraph> templates = {make_serving_template()};

  for (int round = 0; round < kRounds; ++round) {
    const std::uint32_t num_jobs = 16 + static_cast<std::uint32_t>(
                                            rng.below(17));  // 16..32
    const std::uint32_t num_gpus =
        2 + static_cast<std::uint32_t>(rng.below(3));
    const std::uint32_t num_tiers =
        1 + static_cast<std::uint32_t>(rng.below(4));

    core::Platform platform;
    platform.num_gpus = num_gpus;
    // Between "one job's footprint" and "roomy": eviction (and on
    // protected rounds, the veto scan) fires on the tight draws.
    platform.gpu_memory_bytes = 45 + rng.below(76);
    platform.gpu_gflops = 1e-3;
    platform.bus_bandwidth_bytes_per_s = 1e6;
    platform.bus_latency_us = 0.0;

    serve::ServeConfig config;
    config.arrival.mode = serve::ArrivalMode::kPoisson;
    config.arrival.rate_jobs_per_s = 5e4 + 1e4 * rng.below(16);
    config.arrival.seed = 100 + static_cast<std::uint64_t>(round);
    config.admission.max_jobs_in_flight =
        2 + static_cast<std::uint32_t>(rng.below(3));
    if (round % 3 == 1) config.admission.aging_rate_per_s = 2.0;
    config.engine.seed = 17 + static_cast<std::uint64_t>(round);
    config.slo.enabled = true;
    config.slo.tiers = slo::TierPolicy::even(num_tiers);
    if (round % 2 == 1) config.slo.protect_min_priority = num_tiers - 1;
    config.slo.batching = (round % 4 != 3);  // a no-batching control round
    config.slo.fusion_window_us = (round % 2 == 0) ? 0.0 : 200.0;
    config.slo.max_batch = 2 + static_cast<std::uint32_t>(rng.below(4));
    config.slo.marginal_compute = 0.2 + 0.1 * rng.below(7);

    std::vector<serve::JobSpec> jobs(num_jobs);
    for (std::uint32_t j = 0; j < num_jobs; ++j) {
      jobs[j].priority = j % num_tiers;
    }

    for (SchedulerCase& entry : make_schedulers()) {
      SCOPED_TRACE("round " + std::to_string(round) + " scheduler " +
                   entry.label + " gpus " + std::to_string(num_gpus) +
                   " tiers " + std::to_string(num_tiers) + " batch " +
                   std::to_string(config.slo.max_batch) + " mem " +
                   std::to_string(platform.gpu_memory_bytes));

      serve::ServeEngine engine(templates, jobs, platform, *entry.scheduler,
                                config);
      sim::InvariantChecker checker({.fail_fast = false});
      engine.add_inspector(&checker);
      const serve::ServeResult result = engine.run();
      ++runs_checked;

      ASSERT_TRUE(checker.ok())
          << checker.report().error << "\nlast events:\n"
          << checker.report().excerpt;
      EXPECT_GT(checker.events_checked(), 0u);
      EXPECT_EQ(result.serving.jobs_completed, num_jobs);
    }

    // Batching-off control: the master switch rules every knob, down to
    // the serialized byte.
    const auto run_json = [&](const slo::SloConfig& slo) {
      serve::ServeConfig off = config;
      off.slo = slo;
      sched::DmdaScheduler scheduler;
      serve::ServeEngine engine(templates, jobs, platform, scheduler, off);
      sim::RunReportCollector collector(
          {.context = "slo-diff-round-" + std::to_string(round),
           .collect_trace = true});
      engine.add_inspector(&collector);
      serve::ServeResult result = engine.run();
      sim::RunReport report = collector.report();
      report.serving = result.serving;
      return sim::run_report_to_json(report);
    };
    slo::SloConfig armed_but_off = config.slo;
    armed_but_off.enabled = false;
    EXPECT_EQ(run_json(slo::SloConfig{}), run_json(armed_but_off))
        << "round " << round << ": a disabled SLO config leaked into the run";
  }
  EXPECT_EQ(runs_checked, static_cast<std::uint64_t>(kRounds) * 4);
}

TEST(Differential, DartsLoadsApproachTheEvictionFreeLowerBound) {
  // With memory ample enough that no eviction is ever needed, DARTS's
  // data-centric planning should keep total loads within a small factor of
  // the "every used data lands once" floor.
  const core::TaskGraph graph = work::make_random_bipartite(
      {.num_tasks = 120, .num_data = 24, .min_inputs = 2, .max_inputs = 3,
       .data_bytes = 100, .task_flops = 1e6, .seed = 99});
  core::Platform platform;
  platform.num_gpus = 2;
  platform.gpu_memory_bytes = 24 * 100;  // everything fits

  core::DartsScheduler darts{core::DartsOptions{.use_luf = true}};
  sim::RuntimeEngine engine(graph, platform, darts);
  sim::InvariantChecker checker({.fail_fast = false});
  engine.add_inspector(&checker);
  const core::RunMetrics metrics = engine.run();
  ASSERT_TRUE(checker.ok()) << checker.report().error;

  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
  for (const auto& gpu : metrics.per_gpu) {
    loads += gpu.loads + gpu.peer_loads;
    evictions += gpu.evictions;
  }
  EXPECT_EQ(evictions, 0u);
  EXPECT_GE(loads, analysis::min_loads_lower_bound(graph));
  EXPECT_LE(loads, analysis::eviction_free_loads_upper_bound(
                       graph, platform.num_gpus));
}

}  // namespace
}  // namespace mg
