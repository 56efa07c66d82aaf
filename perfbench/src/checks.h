// Correctness checks of the benchmark. Each takes the program's output (and
// where needed an independent recomputation) and returns an empty string
// when the output holds, else a one-line description of what is wrong.
// They are plain functions so tests/checks_test.cpp can show each one
// failing on a corrupted input.
#pragma once

#include <cstdint>
#include <string>

#include "acl/table.h"
#include "core/analysis.h"

namespace perfbench {

/// Outcome classes of one campaign sum to its trial count.
[[nodiscard]] std::string check_tally(const ft::fault::CampaignResult& r);

/// Cross-rank taxonomy and the per-injected-rank trial split both sum to
/// the campaign's trial count.
[[nodiscard]] std::string check_rank_tally(
    const ft::fault::RankCampaignResult& r);

/// Every unit of a report tallies (region entries, whole-app, compositional
/// and cross-rank results).
[[nodiscard]] std::string check_report_tallies(
    const ft::core::AnalysisReport& r);

/// Same outcome counts (all classes, trials and population).
[[nodiscard]] std::string compare_counts(const ft::fault::CampaignResult& a,
                                         const ft::fault::CampaignResult& b);

/// Every unit of `got` carries the same counts as the matching unit of
/// `want` (entries and apps in order).
[[nodiscard]] std::string compare_reports(const ft::core::AnalysisReport& got,
                                          const ft::core::AnalysisReport& want);

/// Properties of one ACL series whose fault entered the stream at record
/// `injection`:
///  * replaying the event list (Birth +1, Rebirth 0, each kill -1) gives
///    the `count` series record by record;
///  * no location is alive and no event happens before `injection`;
///  * births minus kills is zero at the end of the stream.
[[nodiscard]] std::string check_acl(const ft::acl::AclSeries& s,
                                    std::uint64_t injection);

}  // namespace perfbench
