// The three workloads. Each builds what it needs and runs one warm-up round
// (together the setup, timed from process start to the first timed
// operation), then whole rounds of the same operations until the run length
// has passed and at least `min_ops` operations were timed, and checks every
// output it received.
#pragma once

#include <cstddef>

#include "harness.h"

namespace perfbench {

/// How long one workload measures.
struct Phase {
  double seconds = 10;
  /// Keep going past `seconds` until this many operations were timed.
  std::size_t min_ops = 100;
  /// Stop after this many timed rounds (coverage passes and short mode).
  std::size_t max_rounds = ~std::size_t{0};
  bool warmup = true;
  /// Smallest sizes (tests); otherwise the sizes in README.md.
  bool tiny = false;
};

[[nodiscard]] WorkloadResult run_region_campaigns(Context& ctx,
                                                  const Phase& phase);
[[nodiscard]] WorkloadResult run_pattern_extraction(Context& ctx,
                                                    const Phase& phase);
[[nodiscard]] WorkloadResult run_service_mix(Context& ctx,
                                             const Phase& phase);

}  // namespace perfbench
