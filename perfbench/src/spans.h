// Outside-in spans: the benchmark times its own calls into each module's
// public functions and keeps the spans in memory until the run ends, then
// writes them as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// A span names the layer call ("acl.diff", "core.run_analysis", ...), its
// start and end, the thread that made it, the operation it belongs to (all
// spans of one operation share an id) and the span that caused it (the
// innermost span open on the same thread when it began).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = none
    std::uint32_t tid = 0;
    std::int64_t begin_ns = 0;  // since the tracer was created
    std::int64_t end_ns = 0;
    /// True for spans placed from timings the program reported rather than
    /// from the benchmark's own clock.
    bool from_report = false;

    [[nodiscard]] double ms() const noexcept {
      return static_cast<double>(end_ns - begin_ns) / 1e6;
    }
  };

  /// RAII span; does nothing when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    const char* name_;
    std::uint64_t op_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t begin_ns_ = 0;
  };

  explicit Tracer(bool enabled = false);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A fresh operation id.
  [[nodiscard]] std::uint64_t new_op() noexcept {
    return next_op_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  [[nodiscard]] std::int64_t now_ns() const noexcept;

  /// Record a span whose end is now and whose length the program reported
  /// (e.g. AnalysisReport::campaign_ms), as a child of the innermost open
  /// span on this thread.
  void record_reported(const char* name, std::uint64_t op, double ms);
  /// Record a span the benchmark timed itself across threads (begin and end
  /// from now_ns()), as a child of the innermost open span on this thread.
  void record(const char* name, std::uint64_t op, std::int64_t begin_ns,
              std::int64_t end_ns);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Lengths (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Self time per span name: each span's length minus the part of its
  /// interval its direct children cover, summed over spans (ms).
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// Write the spans as Chrome trace-event JSON; `meta` lands in
  /// "otherData". Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& meta) const;

 private:
  void push(Span s);

  const bool enabled_;
  std::int64_t origin_ns_;
  std::atomic<std::uint64_t> next_op_{0};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time of each span given the full list (exposed for the tests).
[[nodiscard]] std::map<std::string, double> self_times_ms(
    const std::vector<Tracer::Span>& spans);

}  // namespace perfbench
