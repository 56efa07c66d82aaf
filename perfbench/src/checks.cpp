#include "checks.h"

namespace perfbench {

namespace {

using ft::acl::AclEventKind;

std::string num(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::string check_tally(const ft::fault::CampaignResult& r) {
  const std::size_t sum = r.success + r.failed + r.crashed +
                          r.detected_recovered + r.detected_unrecoverable;
  if (sum != r.trials) {
    return "outcome classes sum to " + num(sum) + ", trials " + num(r.trials);
  }
  return {};
}

std::string check_rank_tally(const ft::fault::RankCampaignResult& r) {
  const std::size_t sum = r.masked_locally + r.absorbed_by_collective +
                          r.propagated + r.corrupted_output + r.trapped;
  if (sum != r.trials) {
    return "rank taxonomy sums to " + num(sum) + ", trials " + num(r.trials);
  }
  std::size_t per_rank = 0;
  for (const auto n : r.rank_trials) per_rank += n;
  if (per_rank != r.trials) {
    return "per-rank trials sum to " + num(per_rank) + ", trials " +
           num(r.trials);
  }
  return {};
}

std::string check_report_tallies(const ft::core::AnalysisReport& r) {
  for (const auto& e : r.entries) {
    if (!e.region_found) continue;
    if (auto why = check_tally(e.campaign); !why.empty()) {
      return e.app + "/" + e.region_name + ": " + why;
    }
  }
  for (const auto& a : r.apps) {
    if (a.whole_app) {
      if (auto why = check_tally(*a.whole_app); !why.empty()) {
        return a.app + " whole app: " + why;
      }
    }
    if (a.compositional) {
      if (auto why = check_tally(a.compositional->counts); !why.empty()) {
        return a.app + " compositional: " + why;
      }
    }
    if (a.rank_campaign) {
      if (auto why = check_rank_tally(*a.rank_campaign); !why.empty()) {
        return a.app + " rank: " + why;
      }
    }
  }
  return {};
}

std::string compare_counts(const ft::fault::CampaignResult& a,
                           const ft::fault::CampaignResult& b) {
  if (a.trials != b.trials || a.success != b.success ||
      a.failed != b.failed || a.crashed != b.crashed ||
      a.detected_recovered != b.detected_recovered ||
      a.detected_unrecoverable != b.detected_unrecoverable ||
      a.population_bits != b.population_bits) {
    return "counts differ (success " + num(a.success) + " vs " +
           num(b.success) + ", failed " + num(a.failed) + " vs " +
           num(b.failed) + ", crashed " + num(a.crashed) + " vs " +
           num(b.crashed) + ", trials " + num(a.trials) + " vs " +
           num(b.trials) + ")";
  }
  return {};
}

namespace {

std::string compare_rank(const ft::fault::RankCampaignResult& a,
                         const ft::fault::RankCampaignResult& b) {
  if (a.trials != b.trials || a.masked_locally != b.masked_locally ||
      a.absorbed_by_collective != b.absorbed_by_collective ||
      a.propagated != b.propagated ||
      a.corrupted_output != b.corrupted_output || a.trapped != b.trapped ||
      a.rank_trials != b.rank_trials || a.rank_success != b.rank_success ||
      a.population_bits != b.population_bits) {
    return "rank counts differ";
  }
  return {};
}

}  // namespace

std::string compare_reports(const ft::core::AnalysisReport& got,
                            const ft::core::AnalysisReport& want) {
  if (got.entries.size() != want.entries.size() ||
      got.apps.size() != want.apps.size()) {
    return "report shapes differ";
  }
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    const auto& g = got.entries[i];
    const auto& w = want.entries[i];
    if (g.region_id != w.region_id || g.instance != w.instance ||
        g.target != w.target || g.region_found != w.region_found) {
      return "entry " + num(i) + " names another unit";
    }
    if (auto why = compare_counts(g.campaign, w.campaign); !why.empty()) {
      return g.app + "/" + g.region_name + ": " + why;
    }
  }
  // Apps in request order (labels may differ: a registry name vs the
  // spec's own name).
  for (std::size_t i = 0; i < want.apps.size(); ++i) {
    const auto& w = want.apps[i];
    const auto* g = &got.apps[i];
    if (g->whole_app.has_value() != w.whole_app.has_value() ||
        g->compositional.has_value() != w.compositional.has_value() ||
        g->rank_campaign.has_value() != w.rank_campaign.has_value()) {
      return w.app + ": different analyses";
    }
    if (w.whole_app) {
      if (auto why = compare_counts(*g->whole_app, *w.whole_app);
          !why.empty()) {
        return w.app + " whole app: " + why;
      }
    }
    if (w.compositional) {
      if (auto why = compare_counts(g->compositional->counts,
                                    w.compositional->counts);
          !why.empty()) {
        return w.app + " compositional: " + why;
      }
    }
    if (w.rank_campaign) {
      if (auto why = compare_rank(*g->rank_campaign, *w.rank_campaign);
          !why.empty()) {
        return w.app + ": " + why;
      }
    }
  }
  return {};
}

std::string check_acl(const ft::acl::AclSeries& s, std::uint64_t injection) {
  std::int64_t alive = 0;
  std::int64_t births = 0;
  std::int64_t kills = 0;
  std::size_t e = 0;
  for (std::size_t i = 0; i < s.count.size(); ++i) {
    for (; e < s.events.size() && s.events[e].index <= i; ++e) {
      const auto& ev = s.events[e];
      if (ev.index != i) {
        return "event out of order at record " + num(ev.index);
      }
      if (ev.index < injection) {
        return "event at record " + num(ev.index) + " before the injection " +
               num(injection);
      }
      switch (ev.kind) {
        case AclEventKind::Birth: alive++; births++; break;
        case AclEventKind::Rebirth: break;
        case AclEventKind::KillOverwrite:
        case AclEventKind::KillDead:
        case AclEventKind::KillEndOfTrace: alive--; kills++; break;
      }
    }
    if (i < injection && s.count[i] != 0) {
      return "location alive at record " + num(i) + " before the injection " +
             num(injection);
    }
    if (alive != static_cast<std::int64_t>(s.count[i])) {
      return "event replay gives " + std::to_string(alive) + " at record " +
             num(i) + ", series " + num(s.count[i]);
    }
  }
  if (e != s.events.size()) {
    return "event at record " + num(s.events[e].index) + " past the stream";
  }
  if (births != kills) {
    return "births " + std::to_string(births) + " minus kills " +
           std::to_string(kills) + " is not zero";
  }
  return {};
}

}  // namespace perfbench
