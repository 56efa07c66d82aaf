// Tests of the benchmark's own checks: each check passes on the program's
// real output and fails once that output is corrupted (a tally off by one,
// an ACL event list with one kill removed, ...). Also pins the span
// self-time arithmetic. Built by perfbench/CMakeLists.txt; run by
// `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <string>

#include "apps/app.h"
#include "checks.h"
#include "core/analysis.h"
#include "spans.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) g_failures++;
}

bool passes(const std::string& why) { return why.empty(); }

void tally_checks() {
  ft::fault::CampaignConfig cfg;
  cfg.trials = 12;
  cfg.seed = 5;
  auto rep = ft::core::run_analysis(ft::core::AnalysisRequest()
                                        .app("CG")
                                        .analysis_regions()
                                        .target(ft::fault::TargetClass::Internal)
                                        .success_rates(cfg)
                                        .app_campaign(cfg));
  expect(passes(check_report_tallies(rep)), "real report tallies");
  const auto same = rep;
  expect(passes(compare_reports(rep, same)), "report equals itself");

  auto off = rep;
  off.entries.front().campaign.success += 1;
  expect(!passes(check_report_tallies(off)), "entry tally off by one fails");
  expect(!passes(compare_reports(off, rep)), "changed entry count differs");

  auto whole = rep;
  whole.apps.front().whole_app->crashed += 1;
  expect(!passes(check_report_tallies(whole)),
         "whole-app tally off by one fails");

  auto moved = rep;
  auto& c = moved.entries.front().campaign;
  if (c.success > 0) {
    c.success -= 1;
    c.failed += 1;
  } else {
    c.failed -= 1;
    c.success += 1;
  }
  expect(passes(check_report_tallies(moved)), "moved outcome still tallies");
  expect(!passes(compare_reports(moved, rep)),
         "moved outcome differs from the recount");
}

void rank_checks() {
  ft::core::AnalysisSession s(ft::apps::build_app("CG-RANKED"));
  ft::fault::RankCampaignConfig cfg;
  cfg.nranks = 2;
  cfg.trials = 6;
  const auto r = s.rank_campaign(cfg);
  expect(passes(check_rank_tally(r)), "real rank campaign tallies");
  auto off = r;
  off.masked_locally += 1;
  expect(!passes(check_rank_tally(off)), "rank taxonomy off by one fails");
  auto split = r;
  split.rank_trials.front() += 1;
  expect(!passes(check_rank_tally(split)), "per-rank split off by one fails");
}

void acl_checks() {
  ft::core::AnalysisSession s(ft::apps::build_app("MG"));
  const auto& rd = s.app().analysis_regions.front();
  const auto sites = s.region_sites(rd.id, 0);
  bool saw_kill = false;
  for (const auto& plan : ft::fault::sample_plans(
           *sites, ft::fault::TargetClass::Internal, 4, 11)) {
    const auto rep = s.patterns_for(plan);
    expect(passes(check_acl(rep.acl, plan.dyn_index)),
           "real Internal-plan ACL series replays and conserves");
    const auto& events = rep.acl.events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == ft::acl::AclEventKind::Birth ||
          events[i].kind == ft::acl::AclEventKind::Rebirth) {
        continue;
      }
      auto broken = rep.acl;
      broken.events.erase(broken.events.begin() +
                          static_cast<std::ptrdiff_t>(i));
      expect(!passes(check_acl(broken, plan.dyn_index)),
             "event list with one kill removed fails");
      saw_kill = true;
      break;
    }
    if (!rep.acl.count.empty()) {
      auto bumped = rep.acl;
      bumped.count.back() += 1;
      expect(!passes(check_acl(bumped, plan.dyn_index)),
             "count series off by one fails");
    }
  }
  expect(saw_kill, "some sampled plan had a kill to remove");

  // The known fault pattern_extraction counts as failed operations: an
  // Input plan's flipped word is corrupted from record 0 with no Birth.
  // When this starts passing, the fault is mended and the workload's
  // expected failure count drops to zero.
  const auto instances = s.region_instances();
  const auto inst = ft::trace::find_instance(*instances, rd.id, 0);
  const auto input = ft::fault::sample_plans(
      *sites, ft::fault::TargetClass::Input, 1, 11);
  expect(inst.has_value() && !input.empty() && inst->enter_index > 0,
         "first MG region has an Input plan entering after record 0");
  if (inst && !input.empty()) {
    const auto rep = s.patterns_for(input.front());
    expect(!passes(check_acl(rep.acl, inst->enter_index)),
           "Input-plan ACL series breaks conservation (known fault)");
  }

  // Synthetic: alive before the injection point.
  ft::acl::AclSeries early;
  early.count = {1, 1, 0};
  ft::acl::AclEvent birth;
  birth.index = 0;
  birth.kind = ft::acl::AclEventKind::Birth;
  ft::acl::AclEvent kill;
  kill.index = 2;
  kill.kind = ft::acl::AclEventKind::KillDead;
  early.events = {birth, kill};
  expect(passes(check_acl(early, 0)), "synthetic series conserves");
  expect(!passes(check_acl(early, 1)), "location alive before injection fails");
}

void span_checks() {
  using Span = Tracer::Span;
  std::vector<Span> spans = {
      Span{"parent", 1, 1, 0, 1, 0, 10'000'000, false},
      Span{"child", 1, 2, 1, 1, 2'000'000, 5'000'000, false},
      Span{"child", 1, 3, 1, 1, 4'000'000, 8'000'000, false},
  };
  const auto self = self_times_ms(spans);
  expect(self.at("parent") > 3.999 && self.at("parent") < 4.001,
         "parent self time excludes the union of its children");
  expect(self.at("child") > 6.999 && self.at("child") < 7.001,
         "child self time sums both children");
}

}  // namespace

int main() {
  tally_checks();
  rank_checks();
  acl_checks();
  span_checks();
  std::printf("%s: %d failure%s\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
