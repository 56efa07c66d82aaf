// perfbench: end-to-end and per-layer benchmark of the FlipTracker library.
//
//   perfbench --workload <region_campaigns|pattern_extraction|service_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--short]
//
// Prints informational lines starting with "#" and, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans land in
// .bench_out/trace-<workload>-<seed>.json (Chrome trace-event format).
// See README.md next to this file.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

// Per-layer metrics; each is set by the workload that exercises the layer
// (README.md maps each to the end-to-end metric it should move).
constexpr Metric kLayerMetrics[] = {
    {"apps.build_ms", "ms"},
    {"vm.golden_ms", "ms"},
    {"trace.golden_trace_ms", "ms"},
    {"trace.golden_events_ms", "ms"},
    {"regions.instances_ms", "ms"},
    {"fault.sites_ms", "ms"},
    {"vm.trial_instr_per_s", "1/s"},
    {"vm.trial_instructions", "count"},
    {"fault.trials_executed", "count"},
    {"fault.prefix_reuse", "ratio"},
    {"fault.early_exits", "count"},
    {"fault.campaign_ms", "ms"},
    {"fault.request_overhead_ms", "ms"},
    {"acl.diff_ms", "ms"},
    {"trace.plan_events_ms", "ms"},
    {"patterns.detect_ms", "ms"},
    {"trace.diff_records", "count"},
    {"trace.bytes_per_record", "B"},
    {"compose.summarize_ms", "ms"},
    {"compose.close_ms", "ms"},
    {"compose.trials_avoided", "count"},
    {"rank.request_ms", "ms"},
    {"harden.request_ms", "ms"},
    {"store.hit_ratio", "ratio"},
    {"store.bytes_written_mb", "MB"},
    {"store.warm_request_ms", "ms"},
    {"service.admit_wait_ms", "ms"},
    {"sched.steals", "count"},
    {"sched.queue_depth_max", "count"},
    {"sched.tasks_submitted", "count"},
};

using WorkloadFn = WorkloadResult (*)(Context&, const Phase&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"region_campaigns", run_region_campaigns},
    {"pattern_extraction", run_pattern_extraction},
    {"service_mix", run_service_mix},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--short]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--short") {
        o.short_mode = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds >= 0)) usage("--seconds must be >= 0");
  return o;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  (void)process_start();
  const Options opts = parse(argc, argv);
  const Workload* workload = find_workload(opts.workload);
  if (workload == nullptr) usage(("unknown workload " + opts.workload).c_str());
  Context ctx{opts, Tracer(opts.trace), {}};

  Phase phase;
  phase.seconds = ctx.opts.seconds;
  if (ctx.opts.short_mode) {
    phase.min_ops = 1;
    phase.max_rounds = 1;
    phase.tiny = true;
  }

  WorkloadResult res;
  try {
    std::filesystem::create_directories(ctx.opts.out_dir);
    res = workload->run(ctx, phase);
    if (ctx.opts.trace) {
      // One round of each other workload, so every layer metric is
      // measured in every traced run (README.md, "Traced runs").
      Phase cover = phase;
      cover.seconds = 0;
      cover.min_ops = 0;
      cover.max_rounds = 1;
      cover.warmup = false;
      for (const auto& w : kWorkloads) {
        if (&w == workload) continue;
        auto extra = w.run(ctx, cover);
        for (auto& p : extra.problems) res.problem(w.name + (": " + p));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name,
                 e.what());
    return 1;
  }

  const double p50 = quantile(res.op_ms, 0.5);
  const double p90 = quantile(res.op_ms, 0.9);
  const double inj_per_s = quantile(res.round_rates, 0.5);
  const double calib = calibration_ns_per_iter();

  std::printf("# workload %s seed %llu: %zu ops in %zu rounds, %.3f s timed, "
              "%llu injections\n",
              workload->name, static_cast<unsigned long long>(ctx.opts.seed),
              res.op_ms.size(), res.round_rates.size(), res.phase_s,
              static_cast<unsigned long long>(res.injections));
  std::printf("# calibration loop (reference only): %.4f ns/iter\n", calib);
  for (const auto& n : res.notes) std::printf("# %s\n", n.c_str());
  if (ctx.opts.trace) {
    // The traced run's own end-to-end figures: compared with an untraced
    // run of the same workload they give the tracing overhead.
    std::printf("# traced %s: injections_per_s %.6g, op_ms_p50 %.6g, "
                "op_ms_p90 %.6g\n",
                workload->name, inj_per_s, p50, p90);
    const auto path = (std::filesystem::path(ctx.opts.out_dir) /
                       ("trace-" + std::string(workload->name) + "-" +
                        std::to_string(ctx.opts.seed) + ".json"))
                          .string();
    char buf[64];
    std::map<std::string, std::string> meta;
    meta["workload"] = workload->name;
    meta["seed"] = std::to_string(ctx.opts.seed);
    std::snprintf(buf, sizeof buf, "%.6g", inj_per_s);
    meta["traced_injections_per_s"] = buf;
    std::snprintf(buf, sizeof buf, "%.6g", p50);
    meta["traced_op_ms_p50"] = buf;
    std::snprintf(buf, sizeof buf, "%.6g", calib);
    meta["calibration_ns_per_iter"] = buf;
    if (!ctx.tracer.write_chrome_json(path, meta)) {
      res.problem("cannot write " + path);
    }
    std::printf("# spans: %s\n# self time per span name (ms, whole process):\n",
                path.c_str());
    for (const auto& [name, ms] : ctx.tracer.self_ms()) {
      std::printf("#   %-28s %12.3f\n", name.c_str(), ms);
    }
  }

  for (const auto& p : res.problems) std::printf("# CHECK FAILED: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  if (!ctx.opts.trace) {
    print_metric(first, "setup_s", res.setup_s, "s");
    print_metric(first, "injections_per_s", inj_per_s, "1/s");
    print_metric(first, "op_ms_p50", p50, "ms");
    print_metric(first, "op_ms_p90", p90, "ms");
    print_metric(first, "peak_rss_mb", res.peak_rss_mb, "MB");
  } else {
    const auto layers = ctx.layers.values();
    for (const auto& m : kLayerMetrics) {
      const auto it = layers.find(m.name);
      print_metric(first, m.name, it == layers.end() ? 0.0 : it->second,
                   m.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}
