// Ablation: cross-job super-task batching vs. plain tiered serving.
//
// Streams a Poisson burst of matmul jobs — priorities alternating across
// two SLO tiers — through the serving loop with a tight in-flight bound,
// so the admission queue builds up and every retirement admits a leader
// with fusable waiters behind it. Three arms per memory point: `off`
// (SloConfig disabled — the legacy serving path), `tiers` (tiers armed,
// batching off) and `batched` (the BatchPlanner fuses queued jobs of the
// same template into super-task launches: shared loads paid once, riders
// priced at the marginal-compute scale).
// The claim under test (--check): at the first --mem-mbs point (memory to
// spare) the batched arm both completes more jobs per second AND lands a
// lower high-tier p99 than the tiers-only arm, with at least one fusion
// actually observed and zero invariant violations; and a run with every
// batching knob set but `enabled = false` stays byte-identical to the
// plain `off` arm (the serialized run reports compare equal as strings).
// The remaining memory points sweep into pressure and are checked for
// violations only.
//
//   ./abl_batching --gpus=2 --rate=400 --num-jobs=40 --check
#include <cstdio>
#include <string>
#include <vector>

#include "common/figure_harness.hpp"
#include "sched/dmda.hpp"
#include "serve/observed_run.hpp"
#include "serve/serve_engine.hpp"
#include "sim/run_report.hpp"
#include "util/csv.hpp"
#include "workloads/matmul2d.hpp"

int main(int argc, char** argv) {
  using namespace mg;
  util::Flags flags(
      "Batching ablation: cross-job super-task fusion vs. plain tiered "
      "serving x memory pressure (DMDAR)");
  bench::add_standard_flags(flags, bench::kBaseFlags,
                            /*default_gpus=*/2, /*default_mem_mb=*/150);
  flags.define_int("n", 6, "matmul template dimension (N)", /*min_value=*/1)
      .define_int("num-jobs", 40, "jobs in the burst", /*min_value=*/1)
      .define_double("rate", 400.0, "Poisson arrival rate (jobs/s)",
                     {.min_exclusive = true})
      .define_int("max-in-flight", 4,
                  "admission bound on concurrently in-flight jobs (tight, "
                  "so the queue holds fusion candidates)")
      .define_list("mem-mbs", "150,60",
                   "comma-separated per-GPU memory points (MB)",
                   {.min_exclusive = true})
      .define_int("max-batch", 4, "jobs per super-task batch, leader incl.")
      .define_double("marginal-compute", 0.4,
                     "fused rider compute cost (fraction of a full run)")
      .define_bool("check", false,
                   "assert the headline claim: at the first (ample) memory "
                   "point batching beats tiers-only on jobs/s AND high-tier "
                   "p99, with >= 1 fusion, zero invariant violations and a "
                   "byte-identical batching-disabled run");
  if (!flags.parse(argc, argv)) return flags.exit_status();

  const auto config = bench::config_from_flags(
      flags, "abl_batching",
      "cross-job super-task batching vs. plain tiered serving");

  const std::vector<double>& mem_mbs = flags.get_list("mem-mbs");

  std::vector<core::TaskGraph> templates;
  templates.push_back(work::make_matmul_2d(
      {.n = static_cast<std::uint32_t>(flags.get_int("n"))}));
  const std::uint32_t num_jobs =
      static_cast<std::uint32_t>(flags.get_int("num-jobs"));
  // Two tiers, priorities alternating 0/1: every other job is high-tier.
  std::vector<serve::JobSpec> jobs(num_jobs);
  for (std::uint32_t j = 0; j < num_jobs; ++j) jobs[j].priority = j % 2;

  // The tier map both arms share: high tier outranks the whole low tier in
  // the admission queue and carries a latency SLO.
  const auto make_slo = [&](bool batching) {
    slo::SloConfig slo;
    slo.enabled = true;
    slo.tiers = slo::TierPolicy{
        {{.min_priority = 0, .deadline_us = 0.0, .admission_weight = 0},
         {.min_priority = 1, .deadline_us = 50e3, .admission_weight = 4}}};
    slo.batching = batching;
    slo.max_batch = static_cast<std::uint32_t>(flags.get_int("max-batch"));
    slo.marginal_compute = flags.get_double("marginal-compute");
    return slo;
  };

  util::CsvWriter csv(
      {"mem_mb", "arm", "throughput_jobs_per_s", "p50_ms", "p99_ms",
       "hi_p99_ms", "hi_misses", "jobs_fused", "super_tasks", "loads",
       "transfers_mb"},
      config.output_path);
  char line[160];
  std::snprintf(line, sizeof line,
                "platform: %u GPUs; %u jobs at %g jobs/s, max %lld in "
                "flight, batch cap %lld, rider cost %g",
                config.platform.num_gpus, num_jobs, flags.get_double("rate"),
                static_cast<long long>(flags.get_int("max-in-flight")),
                static_cast<long long>(flags.get_int("max-batch")),
                flags.get_double("marginal-compute"));
  csv.comment(line);

  struct ArmResult {
    serve::ServeResult result;
    sim::RunReport report;
    std::string json;
  };
  auto run_arm = [&](double mem_mb, const char* arm,
                     const slo::SloConfig& slo, bool emit_row) {
    core::Platform platform = config.platform;
    platform.gpu_memory_bytes =
        static_cast<std::uint64_t>(mem_mb * static_cast<double>(core::kMB));

    serve::ServeConfig serve_config;
    serve_config.arrival.mode = serve::ArrivalMode::kPoisson;
    serve_config.arrival.rate_jobs_per_s = flags.get_double("rate");
    serve_config.arrival.seed = config.seed;
    serve_config.admission.max_jobs_in_flight =
        static_cast<std::uint32_t>(flags.get_int("max-in-flight"));
    serve_config.engine.seed = config.seed;
    serve_config.slo = slo;

    sched::DmdaScheduler scheduler;
    serve::ServeEngine engine(templates, jobs, platform, scheduler,
                              serve_config);
    // The byte-identity comparison relies on both disabled arms sharing
    // this context string, so keep it independent of `arm`.
    char context[96];
    std::snprintf(context, sizeof context, "abl_batching mem=%g", mem_mb);
    auto run = serve::run_observed(
        engine, {.check = true, .collect = true, .context = context});
    ArmResult out{std::move(run.result), std::move(run.report), ""};
    out.json = sim::run_report_to_json(out.report);

    if (emit_row) {
      const sim::RunReport::Serving& serving = out.result.serving;
      double hi_p99_ms = 0.0;
      std::int64_t hi_misses = 0;
      if (!out.result.slo.per_tier.empty()) {
        const sim::RunReport::Slo::Tier& hi = out.result.slo.per_tier.back();
        hi_p99_ms = hi.p99_us / 1e3;
        hi_misses = static_cast<std::int64_t>(hi.deadline_misses);
      }
      csv.row({mem_mb, arm, serving.throughput_jobs_per_s,
               serving.latency_p50_us / 1e3, serving.latency_p99_us / 1e3,
               hi_p99_ms, hi_misses,
               static_cast<std::int64_t>(out.report.slo.jobs_fused),
               static_cast<std::int64_t>(out.report.slo.super_tasks),
               static_cast<std::int64_t>(out.result.metrics.total_loads()),
               out.result.metrics.transfers_mb()});
    }
    return out;
  };

  bool all_checks_ok = true;
  bool claim_ok = true;
  serve::RunOutputs outputs(config.run_report_path);
  for (const double mem_mb : mem_mbs) {
    // Byte-identity: every batching knob set but the master switch off must
    // reproduce the plain run bit for bit.
    const ArmResult off =
        run_arm(mem_mb, "off", slo::SloConfig{}, /*emit_row=*/true);
    slo::SloConfig dormant = make_slo(/*batching=*/true);
    dormant.enabled = false;
    const ArmResult off_knobs =
        run_arm(mem_mb, "off+knobs", dormant, /*emit_row=*/false);
    if (off.json != off_knobs.json) {
      std::fprintf(stderr,
                   "CLAIM FAILED: batching knobs leaked into a disabled run "
                   "at mem=%g (reports differ)\n",
                   mem_mb);
      claim_ok = false;
    }

    const ArmResult tiers =
        run_arm(mem_mb, "tiers", make_slo(/*batching=*/false), true);
    const ArmResult batched =
        run_arm(mem_mb, "batched", make_slo(/*batching=*/true), true);
    outputs.keep(off.report);
    outputs.keep(tiers.report);
    outputs.keep(batched.report);

    // Schema probe: the batched arm's slo section must serialize armed.
    if (batched.json.find("\"slo\":{\"enabled\":true") == std::string::npos) {
      std::fprintf(stderr,
                   "abl_batching: slo section missing from the batched "
                   "report JSON at mem=%g\n",
                   mem_mb);
      all_checks_ok = false;
    }

    const bool claim_point = mem_mb == mem_mbs.front();
    const double batched_tput =
        batched.result.serving.throughput_jobs_per_s;
    const double tiers_tput = tiers.result.serving.throughput_jobs_per_s;
    const double batched_hi_p99 = batched.result.slo.per_tier.back().p99_us;
    const double tiers_hi_p99 = tiers.result.slo.per_tier.back().p99_us;
    if (flags.get_bool("check")) {
      std::printf("mem=%g MB: batched %.2f jobs/s hi-p99 %.2f ms (%llu "
                  "fused) vs tiers %.2f jobs/s hi-p99 %.2f ms\n",
                  mem_mb, batched_tput, batched_hi_p99 / 1e3,
                  static_cast<unsigned long long>(
                      batched.report.slo.jobs_fused),
                  tiers_tput, tiers_hi_p99 / 1e3);
    }
    if (claim_point) {
      if (batched.report.slo.jobs_fused == 0) {
        std::fprintf(stderr,
                     "CLAIM FAILED: no fusion observed at mem=%g — the "
                     "batched arm never batched\n",
                     mem_mb);
        claim_ok = false;
      }
      if (batched_tput <= tiers_tput) {
        std::fprintf(stderr,
                     "CLAIM FAILED: batched %.2f jobs/s does not beat "
                     "tiers-only %.2f at the ample point mem=%g MB\n",
                     batched_tput, tiers_tput, mem_mb);
        claim_ok = false;
      }
      if (batched_hi_p99 >= tiers_hi_p99) {
        std::fprintf(stderr,
                     "CLAIM FAILED: batched high-tier p99 %.2f ms does not "
                     "beat tiers-only %.2f ms at the ample point mem=%g "
                     "MB\n",
                     batched_hi_p99 / 1e3, tiers_hi_p99 / 1e3, mem_mb);
        claim_ok = false;
      }
    }
  }

  outputs.write("abl_batching: " + config.title);
  if (flags.get_bool("check")) {
    if (!all_checks_ok || !claim_ok) return 1;
    std::printf("claim OK: batching beats tiers-only on jobs/s and "
                "high-tier p99 at the ample memory point, >= 1 fusion, "
                "zero invariant violations, disabled run byte-identical\n");
  }
  return 0;
}
