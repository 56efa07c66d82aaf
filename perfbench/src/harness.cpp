#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "apps/app.h"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point process_start() { return g_process_start; }

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void WorkloadResult::problem(std::string what) {
  problems.push_back(std::move(what));
}

void WorkloadResult::add_round(std::uint64_t round_injections,
                               double seconds) {
  injections += round_injections;
  phase_s += seconds;
  if (seconds > 0) {
    round_rates.push_back(static_cast<double>(round_injections) / seconds);
  }
}

void Layers::set(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

std::map<std::string, double> Layers::values() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

std::shared_ptr<ft::core::AnalysisSession> prepare_session(
    Context& ctx, const std::string& app, bool whole_program) {
  auto& tr = ctx.tracer;
  const auto op = tr.new_op();
  const Tracer::Scope all(tr, "setup.app", op);
  ft::apps::AppSpec spec;
  {
    const Tracer::Scope s(tr, "apps.build", op);
    spec = ft::apps::build_app(app);
  }
  std::shared_ptr<ft::core::AnalysisSession> session;
  {
    const Tracer::Scope s(tr, "core.session", op);
    session = std::make_shared<ft::core::AnalysisSession>(std::move(spec));
  }
  {
    const Tracer::Scope s(tr, "vm.golden", op);
    (void)session->golden();
  }
  {
    const Tracer::Scope s(tr, "trace.golden_trace", op);
    (void)session->golden_trace();
  }
  {
    const Tracer::Scope s(tr, "regions.instances", op);
    (void)session->region_instances();
  }
  {
    const Tracer::Scope s(tr, "trace.golden_events", op);
    (void)session->golden_events();
  }
  {
    const Tracer::Scope s(tr, "fault.sites", op);
    for (const auto& rd : session->app().analysis_regions) {
      (void)session->region_sites(rd.id, 0);
    }
    if (whole_program) (void)session->whole_program_sites();
  }
  return session;
}

void set_setup_layers(Context& ctx) {
  if (!ctx.tracer.enabled()) return;
  const std::pair<const char*, const char*> setup[] = {
      {"apps.build_ms", "apps.build"},
      {"vm.golden_ms", "vm.golden"},
      {"trace.golden_trace_ms", "trace.golden_trace"},
      {"trace.golden_events_ms", "trace.golden_events"},
      {"regions.instances_ms", "regions.instances"},
      {"fault.sites_ms", "fault.sites"},
  };
  for (const auto& [metric, span] : setup) {
    ctx.layers.set(metric, mean(ctx.tracer.durations_ms(span)));
  }
}

double calibration_ns_per_iter() {
  constexpr std::uint64_t kIters = std::uint64_t{1} << 24;
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x2545F4914F6CDD1Dull + static_cast<std::uint64_t>(rep);
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x += i;
    }
    const double ns = ms_since(t0) * 1e6 / static_cast<double>(kIters);
    // Keep the loop observable so it cannot be folded away.
    if (x == 42) best = -1;
    best = std::min(best, ns);
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
