// Shared plumbing of the benchmark: options, clocks, order statistics, the
// per-run result, per-layer metric collection and the calibration loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
[[nodiscard]] double ms_since(Clock::time_point t0);

/// Time the process entered main(); setup_s is measured from here.
[[nodiscard]] Clock::time_point process_start();

/// Number of usable hardware threads (>= 1).
[[nodiscard]] unsigned hardware_threads();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes and one timed round: the end-to-end smoke the tests run.
  bool short_mode = false;
  /// Where traces and the temporary store go (relative to the working
  /// directory, which is the checkout root).
  std::string out_dir = ".bench_out";
  /// Scheduler workers and client threads: one per hardware thread.
  unsigned threads = hardware_threads();
};

/// splitmix64 step: derives every per-round and per-op seed from --seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Everything one workload run reports.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Fault injections whose result the workload received.
  std::uint64_t injections = 0;
  /// Process start to the first timed operation: setup and warm-up round.
  double setup_s = 0;
  /// Timed length of the whole phase and of each round (s), and each
  /// round's injections per second: injections_per_s is the median over
  /// rounds, so a host stall during one round does not move it.
  double phase_s = 0;
  std::vector<double> round_rates;
  std::vector<double> op_ms;
  /// Peak resident set at the end of the timed phase (before the checks
  /// that run after it), in MB.
  double peak_rss_mb = 0;
  /// Checks that failed outside the expected-failure set; any entry makes
  /// the run incorrect.
  std::vector<std::string> problems;
  /// Human-readable notes printed before the result line.
  std::vector<std::string> notes;

  void problem(std::string what);
  void add_round(std::uint64_t round_injections, double seconds);
  [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
};

/// Per-layer metric values, set by the workload that owns each metric.
/// Thread-safe.
class Layers {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] std::map<std::string, double> values() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> values_;  // guarded by mu_
};

/// Shared state of one benchmark process.
struct Context {
  Options opts;
  Tracer tracer;
  Layers layers;
};

/// Build one registry app and warm the golden artifacts a campaign or a
/// pattern analysis reads, timing each layer call as a span:
/// apps.build, core.session (decode + JIT), vm.golden, trace.golden_trace,
/// regions.instances, trace.golden_events and fault.sites (one per
/// analysis region, plus the whole program when `whole_program` is set).
[[nodiscard]] std::shared_ptr<ft::core::AnalysisSession> prepare_session(
    Context& ctx, const std::string& app, bool whole_program);

/// Set the setup-layer metrics (mean span length per call) from the spans
/// prepare_session recorded.
void set_setup_layers(Context& ctx);

/// A fixed single-thread integer loop, independent of the program: ns per
/// iteration, best of three. Reported next to the figures so host speed
/// swings can be told apart from program changes.
[[nodiscard]] double calibration_ns_per_iter();

/// Peak resident set of this process (getrusage), in MB.
[[nodiscard]] double peak_rss_mb();


}  // namespace perfbench
