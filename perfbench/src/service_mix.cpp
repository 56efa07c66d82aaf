// service_mix: up to nproc client threads in a closed loop share one
// core::CampaignService (work-stealing scheduler, fresh artifact store in
// a temporary directory). A round is a fixed list of requests whose
// campaign seeds come from --seed and the round number:
//
//   * compositional campaigns (compose),
//   * cross-rank campaigns on *-RANKED apps (mpi),
//   * whole-app campaigns,
//   * repeats of the previous round's first app campaigns, which the store
//     serves without executing a trial,
//   * a repeat of the previous round's compositional campaign, which reads
//     its section summaries from the store and closes the trials it can
//     symbolically (the store keeps no compositional or rank outcomes, so
//     those are recomputed and rank requests are not repeated),
//
// and one client starts every round with an AnalysisRequest::harden on the
// same scheduler. Clients take the next request as soon as their last one
// returns; a round ends when all of its requests have returned.
//
// Checks: every report tallies; every fresh service report, every
// compositional repeat and every harden baseline matches a storeless
// run_analysis of the same request made outside the service, one request at
// a time, on sessions of its own; every app-campaign repeat executes zero
// trials and matches its original (or, when the original was the untimed
// warm-up round's, the storeless run); every hardened module's fault-free
// run passes the app's verifier.
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <thread>

#include "apps/app.h"
#include "checks.h"
#include "core/service.h"
#include "store/artifact_store.h"
#include "util/scheduler.h"
#include "vm/decode.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ft::core::AnalysisReport;
using ft::core::AnalysisRequest;

enum class Kind : std::uint8_t { Compositional, Rank, AppCampaign };

/// One service request of the mix, as data (so it can be re-issued).
struct Spec {
  Kind kind = Kind::AppCampaign;
  std::string app;
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  bool repeat = false;
};

const std::vector<std::string> kCompositionalApps = {"MG", "CG"};
const std::vector<std::string> kRankApps = {"CG-RANKED", "MG-RANKED"};
const std::vector<std::string> kAppCampaignApps = {"IS", "KMEANS", "FT",
                                                   "DC", "CG", "LU"};
const std::string kHardenApp = "CG";
constexpr std::int64_t kRanks = 4;
constexpr std::size_t kRepeats = 2;

/// Add the analyses of `s` to a request that already names its app.
AnalysisRequest& add_analyses(AnalysisRequest& r, const Spec& s) {
  switch (s.kind) {
    case Kind::Compositional: {
      ft::fault::CampaignConfig c;
      c.trials = s.trials;
      c.seed = s.seed;
      return r.compositional(c);
    }
    case Kind::Rank: {
      ft::fault::RankCampaignConfig c;
      c.nranks = kRanks;
      c.trials = s.trials;
      c.seed = s.seed;
      return r.rank_campaign(c);
    }
    case Kind::AppCampaign: {
      ft::fault::CampaignConfig c;
      c.trials = s.trials;
      c.seed = s.seed;
      return r.app_campaign(c);
    }
  }
  return r;
}

const char* span_name(const Spec& s) {
  if (s.repeat) {
    return s.kind == Kind::Compositional ? "service.compositional_repeat"
                                         : "service.repeat";
  }
  switch (s.kind) {
    case Kind::Compositional: return "service.compositional";
    case Kind::Rank: return "service.rank";
    case Kind::AppCampaign: return "service.app_campaign";
  }
  return "service.request";
}

/// Injections whose result a report carries (all unit kinds).
std::uint64_t injections_of(const AnalysisReport& r) {
  std::uint64_t n = 0;
  for (const auto& e : r.entries) n += e.campaign.trials;
  for (const auto& a : r.apps) {
    if (a.whole_app) n += a.whole_app->trials;
    if (a.compositional) n += a.compositional->counts.trials;
    if (a.rank_campaign) n += a.rank_campaign->trials;
  }
  return n;
}

/// The fresh requests of one round: one slot per kind, apps rotating with
/// the round number, seeds from --seed and the round.
std::vector<Spec> fresh_specs(std::uint64_t seed, std::uint64_t round,
                              bool tiny) {
  const std::size_t k = static_cast<std::size_t>(round);
  const std::uint64_t rs = mix(seed, round);
  std::vector<Spec> out;
  out.push_back({Kind::Compositional,
                 kCompositionalApps[k % kCompositionalApps.size()],
                 tiny ? 4u : 32u, mix(rs, 1), false});
  out.push_back({Kind::Rank, kRankApps[k % kRankApps.size()],
                 tiny ? 2u : 8u, mix(rs, 2), false});
  for (std::size_t i = 0; i < (tiny ? 1u : 4u); ++i) {
    out.push_back({Kind::AppCampaign,
                   kAppCampaignApps[(2 * k + i) % kAppCampaignApps.size()],
                   tiny ? 4u : 40u, mix(rs, 3 + i), false});
  }
  return out;
}

struct Done {
  Spec spec;
  AnalysisReport report;
  double ms = 0;
  double admit_wait_ms = -1;  // < 0: no progress snapshot arrived
};

}  // namespace

WorkloadResult run_service_mix(Context& ctx, const Phase& phase) {
  WorkloadResult res;
  auto& tr = ctx.tracer;
  const std::uint64_t seed = ctx.opts.seed;
  const unsigned clients = std::max(1u, ctx.opts.threads);

  // --- setup: scheduler, fresh store, shared sessions + golden artifacts --
  namespace fs = std::filesystem;
  const fs::path store_dir = fs::path(ctx.opts.out_dir) /
                             ("store-" + std::to_string(::getpid()));
  fs::remove_all(store_dir);
  ft::util::Scheduler sched(ctx.opts.threads);
  std::optional<ft::core::CampaignService> service_storage;
  {
    ft::core::ServiceOptions so;
    so.scheduler = &sched;
    so.store_dir = store_dir.string();
    service_storage.emplace(so);
  }
  auto& service = *service_storage;
  {
    const auto op = tr.new_op();
    auto warm = [&](const std::string& name, bool trace, bool sites,
                    bool rank) {
      const Tracer::Scope s(tr, "service.session_for", op);
      auto session = service.session_for(name);
      (void)session->golden();
      if (trace) (void)session->golden_trace();
      if (sites) (void)session->whole_program_sites();
      if (rank) (void)session->rank_enumeration(kRanks);
      return session;
    };
    for (const auto& a : kCompositionalApps) warm(a, true, true, false);
    for (const auto& a : kRankApps) warm(a, false, false, true);
    for (const auto& a : kAppCampaignApps) warm(a, false, true, false);
    auto h = warm(kHardenApp, true, true, false);
    for (const auto& rd : h->app().analysis_regions) {
      (void)h->region_sites(rd.id, 0);
    }
  }

  // The region campaign that guides the hardening pass; the service's
  // store and scheduler are added to the timed request only.
  auto harden_baseline = [&](std::uint64_t round,
                             std::shared_ptr<ft::core::AnalysisSession> s) {
    ft::fault::CampaignConfig c;
    c.trials = phase.tiny ? 4 : 16;
    c.seed = mix(mix(seed, round), 99);
    return AnalysisRequest()
        .session(std::move(s))
        .analysis_regions()
        .target(ft::fault::TargetClass::Internal)
        .success_rates(c);
  };
  ft::harden::HardenConfig hcfg;
  hcfg.sr_threshold = 1.0;

  std::mutex mu;
  std::vector<Done> done;                          // guarded by mu
  std::vector<double> harden_ms;                   // guarded by mu
  std::vector<std::uint64_t> harden_injections;    // guarded by mu
  std::map<std::uint64_t, std::string> harden_problems;  // guarded by mu
  // Each timed harden request's round and baseline report, rerun without
  // the store after the timed phase.
  std::vector<std::pair<std::uint64_t, AnalysisReport>>
      harden_baselines;                              // guarded by mu

  // Checked as soon as it returns (outside its latency), so no hardened
  // module outlives its round.
  const auto harden_golden = service.session_for(kHardenApp)->golden();
  auto check_harden = [&](const ft::core::HardenReport& h) {
    std::string why = check_report_tallies(h.baseline);
    if (why.empty()) why = check_report_tallies(h.hardened);
    for (const auto& a : h.apps) {
      if (!why.empty()) break;
      const auto program = ft::vm::DecodedProgram::decode(a.spec.module);
      auto opts = a.spec.base;
      opts.program = nullptr;
      opts.jit = nullptr;
      const auto run = ft::vm::Vm::run(program, opts);
      if (!run.completed() ||
          !a.spec.verifier(run.outputs, harden_golden->outputs)) {
        why = "hardened " + a.app + " fails its verifier fault-free";
      }
    }
    return why;
  };

  auto submit = [&](const Spec& spec) {
    const auto op = tr.new_op();
    const Tracer::Scope s(tr, span_name(spec), op);
    const auto t_submit = tr.now_ns();
    const auto t0 = Clock::now();
    auto first = std::make_shared<std::atomic<std::int64_t>>(-1);
    AnalysisRequest req;
    req.app(spec.app);
    auto fut = service.submit(
        add_analyses(req, spec), [first, &tr](const ft::core::ServiceSnapshot&) {
          std::int64_t none = -1;
          first->compare_exchange_strong(none, tr.now_ns());
        });
    Done d{spec, fut.get(), 0, -1};
    d.ms = ms_since(t0);
    if (const auto t = first->load(); t >= 0) {
      d.admit_wait_ms = static_cast<double>(t - t_submit) / 1e6;
      tr.record("service.admit_wait", op, t_submit, t);
    }
    return d;
  };

  // Runs one round; returns its fresh specs (the next round repeats them).
  auto run_round = [&](std::uint64_t round, const std::vector<Spec>& prev,
                       bool timed) {
    auto specs = fresh_specs(seed, round, phase.tiny);
    std::vector<Spec> list = specs;
    // Repeats: the previous round's first kRepeats app campaigns and its
    // compositional campaign (rank results are recomputed on every request
    // and not repeated).
    std::size_t repeats = 0;
    for (auto s : prev) {
      if (s.kind == Kind::Rank ||
          (s.kind == Kind::AppCampaign && repeats++ >= kRepeats)) {
        continue;
      }
      s.repeat = true;
      list.push_back(s);
    }
    std::atomic<std::size_t> next{0};
    std::vector<Done> local;
    std::exception_ptr error;
    auto client = [&](unsigned index) {
      try {
        if (index == 0) {
          const auto op = tr.new_op();
          const auto t0 = Clock::now();
          ft::core::HardenReport h;
          {
            const Tracer::Scope s(tr, "core.harden", op);
            h = harden_baseline(round, service.session_for(kHardenApp))
                    .store(service.store())
                    .pool(&sched)
                    .harden(hcfg);
          }
          const double ms = ms_since(t0);
          if (timed) {
            auto why = check_harden(h);
            const std::lock_guard<std::mutex> lock(mu);
            harden_ms.push_back(ms);
            harden_injections.push_back(injections_of(h.baseline) +
                                        injections_of(h.hardened));
            if (!why.empty()) harden_problems[round] = std::move(why);
            harden_baselines.emplace_back(round, std::move(h.baseline));
          }
        }
        for (std::size_t i; (i = next.fetch_add(1)) < list.size();) {
          auto d = submit(list[i]);
          const std::lock_guard<std::mutex> lock(mu);
          local.push_back(std::move(d));
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
    if (error) std::rethrow_exception(error);
    if (timed) {
      for (auto& d : local) done.push_back(std::move(d));
    }
    return specs;
  };

  // The warm-up round also fills the store the first timed round's repeats
  // are served from; it always runs.
  auto prev = run_round(~std::uint64_t{0}, {}, false);
  res.setup_s = ms_since(process_start()) / 1e3;
  const auto store = service.store();
  const auto c0 = store->counters();
  const auto steals0 = sched.steals();
  const auto tasks0 = sched.tasks_submitted();
  const auto phase_start = Clock::now();
  std::uint64_t rounds = 0;
  for (std::uint64_t round = 0; round < phase.max_rounds; ++round) {
    const auto t0 = Clock::now();
    const auto first_op = done.size();
    const auto first_harden = harden_ms.size();
    prev = run_round(round, prev, true);
    std::uint64_t injections = 0;
    for (auto i = first_op; i < done.size(); ++i) {
      injections += injections_of(done[i].report);
    }
    for (auto i = first_harden; i < harden_ms.size(); ++i) {
      injections += harden_injections[i];
    }
    res.add_round(injections, ms_since(t0) / 1e3);
    rounds++;
    if (ms_since(phase_start) >= phase.seconds * 1e3 &&
        done.size() + harden_ms.size() >= phase.min_ops) {
      break;
    }
  }
  res.peak_rss_mb = peak_rss_mb();
  const auto c1 = store->counters();
  const auto steals1 = sched.steals();
  const auto tasks1 = sched.tasks_submitted();

  for (const auto& d : done) res.op_ms.push_back(d.ms);
  res.op_ms.insert(res.op_ms.end(), harden_ms.begin(), harden_ms.end());
  res.attempted = res.op_ms.size();

  // --- checks (after the timed phase) -------------------------------------
  ft::util::Scheduler check_pool(ctx.opts.threads);
  std::map<std::string, std::shared_ptr<ft::core::AnalysisSession>> own;
  auto own_session = [&](const std::string& name) {
    auto& s = own[name];
    if (!s) {
      s = std::make_shared<ft::core::AnalysisSession>(
          ft::apps::build_app(name));
    }
    return s;
  };
  std::map<std::pair<std::uint64_t, std::string>, const Done*> originals;
  for (const auto& d : done) {
    if (!d.spec.repeat) originals[{d.spec.seed, d.spec.app}] = &d;
  }
  std::uint64_t bad_ops = 0;
  for (const auto& d : done) {
    std::string why = check_report_tallies(d.report);
    const auto original = originals.find({d.spec.seed, d.spec.app});
    const bool store_served =
        d.spec.repeat && d.spec.kind == Kind::AppCampaign;
    if (why.empty() && store_served && d.report.trials_executed != 0) {
      why = "repeat executed " + std::to_string(d.report.trials_executed) +
            " trials";
    } else if (why.empty() && store_served && original != originals.end()) {
      why = compare_reports(d.report, original->second->report);
    } else if (why.empty()) {
      // The same analyses on a session of our own, without a store, outside
      // the service, one request at a time.
      AnalysisRequest q;
      q.session(own_session(d.spec.app)).pool(&check_pool);
      const auto want = ft::core::run_analysis(add_analyses(q, d.spec));
      why = compare_reports(d.report, want);
    }
    if (!why.empty()) {
      bad_ops++;
      res.problem(d.spec.app + (d.spec.repeat ? " repeat: " : ": ") + why);
    }
  }
  for (const auto& [round, baseline] : harden_baselines) {
    std::string why;
    if (const auto it = harden_problems.find(round);
        it != harden_problems.end()) {
      why = it->second;
    } else {
      auto q = harden_baseline(round, own_session(kHardenApp));
      why = compare_reports(baseline,
                            ft::core::run_analysis(q.pool(&check_pool)));
      if (!why.empty()) why = "harden baseline: " + why;
    }
    if (!why.empty()) {
      bad_ops++;
      res.problem(kHardenApp + ": " + why);
    }
  }
  res.failed = bad_ops;

  if (tr.enabled()) {
    std::vector<double> summarize, close, avoided, rank_ms, warm_ms, admit;
    for (const auto& d : done) {
      const auto* a = d.report.find_app(d.spec.app);
      const auto* composed =
          a != nullptr && a->compositional ? &*a->compositional : nullptr;
      if (d.spec.repeat) {
        // Warm requests: summaries come from the store.
        if (composed != nullptr) {
          avoided.push_back(static_cast<double>(composed->trials_avoided));
        } else {
          warm_ms.push_back(d.ms);
        }
        continue;
      }
      if (d.admit_wait_ms >= 0) admit.push_back(d.admit_wait_ms);
      if (d.spec.kind == Kind::Rank) rank_ms.push_back(d.ms);
      if (composed != nullptr) {
        summarize.push_back(composed->summarize_seconds * 1e3);
        close.push_back(composed->close_seconds * 1e3);
      }
    }
    const double ops = static_cast<double>(std::max<std::size_t>(1, res.attempted));
    auto& L = ctx.layers;
    L.set("compose.summarize_ms", quantile(summarize, 0.5));
    L.set("compose.close_ms", quantile(close, 0.5));
    L.set("compose.trials_avoided", quantile(avoided, 0.5));
    L.set("rank.request_ms", quantile(rank_ms, 0.5));
    L.set("harden.request_ms", quantile(harden_ms, 0.5));
    L.set("store.warm_request_ms", quantile(warm_ms, 0.5));
    L.set("service.admit_wait_ms", quantile(admit, 0.5));
    const auto hits = static_cast<double>(c1.hits - c0.hits);
    const auto misses = static_cast<double>(c1.misses - c0.misses);
    L.set("store.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
    L.set("store.bytes_written_mb",
          static_cast<double>(c1.bytes_written - c0.bytes_written) / 1e6 / ops);
    L.set("sched.steals", static_cast<double>(steals1 - steals0) / ops);
    L.set("sched.tasks_submitted", static_cast<double>(tasks1 - tasks0) / ops);
    L.set("sched.queue_depth_max", static_cast<double>(sched.queue_depth_max()));
  }
  {
    std::map<std::string, std::vector<double>> by_kind;
    for (const auto& d : done) by_kind[span_name(d.spec)].push_back(d.ms);
    by_kind["core.harden"] = harden_ms;
    for (const auto& [k, v] : by_kind) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%-22s n=%zu p50 %.1f ms p90 %.1f ms", k.c_str(),
                    v.size(), quantile(v, 0.5), quantile(v, 0.9));
      res.notes.push_back(buf);
    }
  }
  res.notes.push_back("service_mix: " + std::to_string(rounds) +
                      " rounds of " +
                      std::to_string(fresh_specs(seed, 0, phase.tiny).size()) +
                      " fresh requests, their repeats and one harden");

  service_storage.reset();  // waits for admitted requests, closes the store
  std::error_code ec;
  fs::remove_all(store_dir, ec);
  return res;
}

}  // namespace perfbench
