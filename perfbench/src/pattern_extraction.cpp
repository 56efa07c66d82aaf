// pattern_extraction: the Table I method. Per analysis region of CG, MG,
// KMEANS, IS and LULESH, one round analyses kInternal seeded Internal plans
// and kInput fixed Input plans, each through AnalysisSession::patterns_for
// (lockstep diff -> location-events index -> ACL sweep + detectors), one
// call after another as Table I runs them. No trial executes.
//
// The Input plans are drawn from a fixed seed, not from --seed, so every
// round and every run analyses the same ones: their ACL series break
// conservation (the flipped input word is seeded into the corrupted set at
// record 0 without a Birth event), and they count as failed operations —
// the same share of every run.
#include <algorithm>
#include <cstdio>

#include "acl/diff.h"
#include "checks.h"
#include "trace/events.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ft::core::AnalysisSession;
using ft::fault::TargetClass;
using ft::vm::FaultPlan;

constexpr std::size_t kInternal = 4;
constexpr std::size_t kInput = 1;
constexpr std::uint64_t kInputSeed = 0x1A9E7;

struct Region {
  std::shared_ptr<AnalysisSession> session;
  std::uint32_t region_id = 0;
  std::uint64_t enter_index = 0;  // RegionEnter record of instance 0
  std::shared_ptr<const ft::fault::SiteEnumerationResult> sites;
  std::vector<FaultPlan> input_plans;
};

struct Plan {
  const Region* region = nullptr;
  FaultPlan plan;
  bool input = false;
};

/// Record where the fault enters the faulty stream.
std::uint64_t injection_index(const Plan& p) {
  return p.input ? p.region->enter_index : p.plan.dyn_index;
}

/// Per-op layer figures of a traced call.
struct CallLayers {
  double diff_records = 0;
  double bytes_per_record = 0;
};

/// The traced form of AnalysisSession::patterns_for: the same three calls,
/// each inside its own span.
ft::patterns::PatternReport traced_patterns_for(Tracer& tr, const Plan& p,
                                                std::uint64_t op,
                                                CallLayers& out) {
  const Tracer::Scope all(tr, "core.patterns_for", op);
  ft::acl::ColumnDiff diff;
  {
    const Tracer::Scope s(tr, "acl.diff", op);
    diff = p.region->session->column_diff_with(p.plan);
  }
  ft::trace::LocationEvents events;
  {
    const Tracer::Scope s(tr, "trace.plan_events", op);
    events = ft::trace::LocationEvents::build(diff.records());
  }
  ft::patterns::DetectOptions opts;
  if (p.input) {
    opts.seed_loc = ft::vm::mem_loc(p.plan.address);
    opts.seed_index = p.region->enter_index;
  }
  const auto rows = diff.usable_records();
  out.diff_records = static_cast<double>(rows);
  if (rows > 0) {
    const auto bytes = diff.faulty.resident_bytes() +
                       diff.clean_bits.size() * sizeof(std::uint64_t) +
                       diff.clean_op_bits.size() *
                           sizeof(diff.clean_op_bits.front());
    out.bytes_per_record =
        static_cast<double>(bytes) / static_cast<double>(rows);
  }
  const Tracer::Scope s(tr, "patterns.detect", op);
  return ft::patterns::detect_patterns(diff, events, opts);
}

}  // namespace

WorkloadResult run_pattern_extraction(Context& ctx, const Phase& phase) {
  WorkloadResult res;
  auto& tr = ctx.tracer;
  const std::uint64_t seed = ctx.opts.seed;

  // --- setup: sessions, golden artifacts, region sites, Input plans -------
  std::vector<Region> regions;
  for (const char* name : {"CG", "MG", "KMEANS", "IS", "LULESH"}) {
    auto session = prepare_session(ctx, name, false);
    const auto instances = session->region_instances();
    for (const auto& rd : session->app().analysis_regions) {
      const auto inst = ft::trace::find_instance(*instances, rd.id, 0);
      if (!inst) continue;
      Region r;
      r.session = session;
      r.region_id = rd.id;
      r.enter_index = inst->enter_index;
      r.sites = session->region_sites(rd.id, 0);
      r.input_plans = ft::fault::sample_plans(
          *r.sites, TargetClass::Input, kInput, mix(kInputSeed, rd.id));
      regions.push_back(std::move(r));
      if (phase.tiny) break;  // one region per app
    }
  }
  set_setup_layers(ctx);

  // One round: every region's Internal plans (seeded per round) and its
  // fixed Input plans.
  auto round_plans = [&](std::uint64_t round) {
    std::vector<Plan> out;
    for (const auto& r : regions) {
      const auto internal = ft::fault::sample_plans(
          *r.sites, TargetClass::Internal, phase.tiny ? 1 : kInternal,
          mix(mix(seed, round), r.region_id));
      for (const auto& p : internal) out.push_back(Plan{&r, p, false});
      for (const auto& p : r.input_plans) out.push_back(Plan{&r, p, true});
    }
    return out;
  };

  std::vector<double> diff_records, bytes_per_record;
  std::string first_input_failure;
  auto run_round = [&](std::uint64_t round, bool timed) {
    double round_ms = 0;
    std::uint64_t round_injections = 0;
    for (const auto& p : round_plans(round)) {
      const auto op = tr.new_op();
      CallLayers layers;
      const auto t0 = Clock::now();
      const auto rep = tr.enabled() ? traced_patterns_for(tr, p, op, layers)
                                    : p.region->session->patterns_for(p.plan);
      const double ms = ms_since(t0);
      if (!timed) continue;
      res.op_ms.push_back(ms);
      res.attempted++;
      round_ms += ms;
      round_injections++;
      if (tr.enabled()) {
        diff_records.push_back(layers.diff_records);
        bytes_per_record.push_back(layers.bytes_per_record);
      }
      const auto why = check_acl(rep.acl, injection_index(p));
      if (why.empty()) continue;
      res.failed++;
      if (p.input) {
        if (first_input_failure.empty()) first_input_failure = why;
      } else {
        res.problem("Internal plan at record " +
                    std::to_string(p.plan.dyn_index) + ": " + why);
      }
    }
    if (timed) res.add_round(round_injections, round_ms / 1e3);
  };

  if (phase.warmup) run_round(~std::uint64_t{0}, false);
  res.setup_s = ms_since(process_start()) / 1e3;
  const auto phase_start = Clock::now();
  for (std::uint64_t round = 0; round < phase.max_rounds; ++round) {
    run_round(round, true);
    if (ms_since(phase_start) >= phase.seconds * 1e3 &&
        res.op_ms.size() >= phase.min_ops) {
      break;
    }
  }
  res.peak_rss_mb = peak_rss_mb();
  if (!first_input_failure.empty()) {
    res.notes.push_back("Input plans fail the ACL checks (expected): " +
                        first_input_failure);
  }

  if (tr.enabled()) {
    auto& L = ctx.layers;
    L.set("acl.diff_ms", quantile(tr.durations_ms("acl.diff"), 0.5));
    L.set("trace.plan_events_ms",
          quantile(tr.durations_ms("trace.plan_events"), 0.5));
    L.set("patterns.detect_ms",
          quantile(tr.durations_ms("patterns.detect"), 0.5));
    L.set("trace.diff_records", quantile(diff_records, 0.5));
    L.set("trace.bytes_per_record", quantile(bytes_per_record, 0.5));
  }
  return res;
}

}  // namespace perfbench
