#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1) + 1;
  return tid;
}

// Innermost open span per thread (the parent of the next span it opens).
thread_local std::uint64_t t_open_span = 0;

void json_escape(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
      continue;
    }
    std::fputc(c, f);
  }
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const noexcept {
  return steady_ns() - origin_ns_;
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t op)
    : t_(t), name_(name), op_(op) {
  if (!t_.enabled()) return;
  begin_ns_ = t_.now_ns();
  id_ = t_.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  parent_ = t_open_span;
  t_open_span = id_;
}

Tracer::Scope::~Scope() {
  if (id_ == 0) return;
  t_open_span = parent_;
  t_.push(Span{name_, op_, id_, parent_, thread_index(), begin_ns_,
               t_.now_ns(), false});
}

void Tracer::record_reported(const char* name, std::uint64_t op, double ms) {
  if (!enabled_) return;
  const auto end = now_ns();
  const auto len = static_cast<std::int64_t>(ms * 1e6);
  push(Span{name, op, next_id_.fetch_add(1, std::memory_order_relaxed) + 1,
            t_open_span, thread_index(), end - len, end, true});
}

void Tracer::record(const char* name, std::uint64_t op, std::int64_t begin_ns,
                    std::int64_t end_ns) {
  if (!enabled_) return;
  push(Span{name, op, next_id_.fetch_add(1, std::memory_order_relaxed) + 1,
            t_open_span, thread_index(), begin_ns, end_ns, false});
}

void Tracer::push(Span s) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

std::map<std::string, double> self_times_ms(
    const std::vector<Tracer::Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Tracer::Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const auto* c : it->second) {
        const auto b = std::max(c->begin_ns, s.begin_ns);
        const auto e = std::min(c->end_ns, s.end_ns);
        if (e > b) iv.emplace_back(b, e);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_b = 0, cur_e = -1;
      for (const auto& [b, e] : iv) {
        if (b > cur_e) {
          if (cur_e > cur_b) covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_b) covered += cur_e - cur_b;
    }
    out[s.name] +=
        static_cast<double>(s.end_ns - s.begin_ns - covered) / 1e6;
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms() const {
  return self_times_ms(spans());
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& s : spans()) {
    const auto dot = s.name.find('.');
    std::fprintf(f, "%s\n{\"name\":\"", first ? "" : ",");
    json_escape(f, s.name);
    std::fputs("\",\"cat\":\"", f);
    json_escape(f, s.name.substr(0, dot));
    std::fprintf(f,
                 "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%llu,"
                 "\"parent\":%llu,\"from_report\":%s}}",
                 s.tid, static_cast<double>(s.begin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.from_report ? "true" : "false");
    first = false;
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{", f);
  first = true;
  for (const auto& [k, v] : meta) {
    std::fputs(first ? "\"" : ",\"", f);
    json_escape(f, k);
    std::fputs("\":\"", f);
    json_escape(f, v);
    std::fputs("\"", f);
    first = false;
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
