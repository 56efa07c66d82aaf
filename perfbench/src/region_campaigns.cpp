// region_campaigns: one client sends one application's Fig. 5 request at a
// time — every analysis region x {Internal, Input} success rates plus the
// whole-app campaign — to run_analysis on a util::Scheduler with nproc
// workers, taking the ten apps round-robin (one round = ten requests).
// Sessions and their golden artifacts are prepared during setup and no
// store is attached, so the timed phase is trial execution: vm/jit, the
// snapshot-forked trial runner and the scheduler.
//
// Check: every unit's outcome classes sum to its trials, and for one unit
// per request of the first timed round a serial, unforked, storeless
// recount (prepare_campaign plans through fault::run_trial) gives exactly
// the report's counts.
#include <map>

#include "apps/app.h"
#include "checks.h"
#include "util/scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ft::core::AnalysisReport;
using ft::core::AnalysisSession;

/// Trials per unit and app, sized so that every app's request costs about
/// the same (~70 ms on four workers): latency quantiles then fall inside
/// one distribution instead of between per-app clusters.
std::size_t trials_for(const std::string& app, bool tiny) {
  if (tiny) return 4;
  static const std::map<std::string, std::size_t> kTrials = {
      {"CG", 40},  {"MG", 72},  {"LU", 360}, {"BT", 360},     {"IS", 210},
      {"DC", 320}, {"SP", 640}, {"FT", 100}, {"KMEANS", 270}, {"LULESH", 360}};
  const auto it = kTrials.find(app);
  return it == kTrials.end() ? 48 : it->second;
}

/// Serial recount of one unit: the same plans through fault::run_trial,
/// from scratch, one after another, on the calling thread.
ft::fault::CampaignResult recount(AnalysisSession& s,
                                  const ft::core::AnalysisEntry& e,
                                  const ft::fault::CampaignConfig& cfg) {
  const auto sites = s.region_sites(e.region_id, e.instance);
  const auto prepared =
      ft::fault::prepare_campaign(*sites, e.target, s.app().base, cfg);
  const auto golden = s.golden();
  ft::fault::CampaignResult out;
  out.trials = prepared.plans.size();
  out.population_bits = prepared.population_bits;
  for (const auto& plan : prepared.plans) {
    switch (ft::fault::run_trial(*s.program(), prepared, plan,
                                 golden->outputs, s.app().verifier)) {
      case ft::fault::Outcome::VerificationSuccess: out.success++; break;
      case ft::fault::Outcome::VerificationFailed: out.failed++; break;
      case ft::fault::Outcome::Crashed: out.crashed++; break;
      case ft::fault::Outcome::DetectedRecovered:
        out.detected_recovered++;
        break;
      case ft::fault::Outcome::DetectedUnrecoverable:
        out.detected_unrecoverable++;
        break;
    }
  }
  return out;
}

}  // namespace

WorkloadResult run_region_campaigns(Context& ctx, const Phase& phase) {
  WorkloadResult res;
  auto& tr = ctx.tracer;
  const std::uint64_t seed = ctx.opts.seed;

  ft::util::Scheduler sched(ctx.opts.threads);
  std::vector<std::string> names;
  std::vector<std::shared_ptr<AnalysisSession>> sessions;
  for (const auto& name : ft::apps::all_app_names()) {
    names.push_back(name);
    sessions.push_back(prepare_session(ctx, name, true));
    if (phase.tiny && sessions.size() == 2) break;
  }
  set_setup_layers(ctx);

  auto config_for = [&](std::size_t app, std::uint64_t round) {
    ft::fault::CampaignConfig cfg;
    cfg.trials = trials_for(names[app], phase.tiny);
    cfg.seed = mix(mix(seed, round), app);
    return cfg;
  };
  auto request = [&](std::size_t app, std::uint64_t round) {
    const auto cfg = config_for(app, round);
    return ft::core::AnalysisRequest()
        .session(sessions[app])
        .analysis_regions()
        .target(ft::fault::TargetClass::Internal)
        .target(ft::fault::TargetClass::Input)
        .success_rates(cfg)
        .app_campaign(cfg)
        .pool(&sched);
  };

  struct OpFigures {
    double campaign_ms, overhead_ms, instructions, executed, early_exits;
  };
  std::vector<OpFigures> figures;
  std::uint64_t saved = 0, retired = 0;
  double campaign_ms_total = 0;
  std::vector<AnalysisReport> first_round;

  auto run_round = [&](std::uint64_t round, bool timed) {
    double round_ms = 0;
    std::uint64_t round_injections = 0;
    for (std::size_t app = 0; app < sessions.size(); ++app) {
      const auto op = tr.new_op();
      const auto t0 = Clock::now();
      AnalysisReport rep;
      {
        const Tracer::Scope s(tr, "core.run_analysis", op);
        rep = ft::core::run_analysis(request(app, round));
        tr.record_reported("fault.campaign", op, rep.campaign_ms);
      }
      const double ms = ms_since(t0);
      if (!timed) continue;
      res.op_ms.push_back(ms);
      res.attempted++;
      round_ms += ms;
      round_injections += rep.total_trials;
      if (auto why = check_report_tallies(rep); !why.empty()) {
        res.failed++;
        res.problem(why);
      }
      figures.push_back({rep.campaign_ms, ms - rep.campaign_ms,
                         static_cast<double>(rep.total_instructions),
                         static_cast<double>(rep.trials_executed),
                         static_cast<double>(rep.early_exits)});
      saved += rep.instructions_saved;
      retired += rep.total_instructions;
      campaign_ms_total += rep.campaign_ms;
      if (round == 0) first_round.push_back(std::move(rep));
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

  // Serial recount of one unit per request of the first timed round (the
  // unit index rotates with the app so every target class is covered).
  for (std::size_t app = 0; app < first_round.size(); ++app) {
    const auto& rep = first_round[app];
    if (rep.entries.empty()) continue;
    const auto& e = rep.entries[app % rep.entries.size()];
    if (!e.region_found) continue;
    const auto want = recount(*sessions[app], e, config_for(app, 0));
    if (auto why = compare_counts(e.campaign, want); !why.empty()) {
      res.problem("recount " + e.app + "/" + e.region_name + ": " + why);
    }
  }

  if (tr.enabled()) {
    auto pick = [&](double OpFigures::*field) {
      std::vector<double> v;
      for (const auto& f : figures) v.push_back(f.*field);
      return quantile(v, 0.5);
    };
    auto& L = ctx.layers;
    L.set("fault.campaign_ms", pick(&OpFigures::campaign_ms));
    L.set("fault.request_overhead_ms", pick(&OpFigures::overhead_ms));
    L.set("vm.trial_instructions", pick(&OpFigures::instructions));
    L.set("fault.trials_executed", pick(&OpFigures::executed));
    L.set("fault.early_exits", pick(&OpFigures::early_exits));
    L.set("vm.trial_instr_per_s",
          campaign_ms_total > 0
              ? static_cast<double>(retired) / (campaign_ms_total / 1e3)
              : 0.0);
    L.set("fault.prefix_reuse",
          saved + retired > 0 ? static_cast<double>(saved) /
                                    static_cast<double>(saved + retired)
                              : 0.0);
  }
  return res;
}

}  // namespace perfbench
