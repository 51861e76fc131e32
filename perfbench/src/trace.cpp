#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

#include "json.hpp"

namespace perfbench {

namespace {

// Open spans of this thread, innermost last.
thread_local std::vector<std::int64_t> t_open;

int this_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

}  // namespace

std::int64_t Tracer::begin(std::string name, std::int64_t job) {
  Span s;
  s.name = std::move(name);
  s.start_us = now_us();
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.job = job;
  s.tid = this_tid();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(m_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  const double t = now_us();
  {
    std::lock_guard<std::mutex> lock(m_);
    spans_[static_cast<std::size_t>(id)].end_us = t;
  }
  // Spans close in LIFO order on their thread; tolerate a mismatched close
  // by dropping everything opened after it.
  const auto it = std::find(t_open.begin(), t_open.end(), id);
  if (it != t_open.end()) t_open.erase(it, t_open.end());
}

std::int64_t Tracer::add(std::string name, double start_us, double end_us,
                         std::int64_t parent, std::int64_t job) {
  Span s;
  s.name = std::move(name);
  s.start_us = start_us;
  s.end_us = end_us;
  s.parent = parent;
  s.job = job;
  s.tid = this_tid();
  s.on_job_track = true;
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_.size();
}

double self_time_us(double start, double end,
                    std::vector<std::pair<double, double>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, start);
    c.second = std::min(c.second, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  bool open = false;
  for (const auto& [lo, hi] : children) {
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return (end - start) - covered;
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_us >= s.start_us) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < s.start_us) continue;
    SelfTime& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_ms += (s.end_us - s.start_us) * 1e-3;
    row.self_ms += self_time_us(s.start_us, s.end_us, kids[i]) * 1e-3;
  }
  std::vector<SelfTime> out;
  out.reserve(by_name.size());
  for (auto& [name, row] : by_name) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.self_ms > b.self_ms; });
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(m_);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < s.start_us) continue;
    const std::string name = json_string(s.name);
    if (s.on_job_track) {
      sep();
      std::fprintf(f,
                   "{\"name\": %s, \"cat\": \"job\", \"ph\": \"b\", \"id\": %lld, "
                   "\"ts\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"span\": %zu, "
                   "\"parent\": %lld}}",
                   name.c_str(), static_cast<long long>(s.job), s.start_us, s.tid, i,
                   static_cast<long long>(s.parent));
      sep();
      std::fprintf(f,
                   "{\"name\": %s, \"cat\": \"job\", \"ph\": \"e\", \"id\": %lld, "
                   "\"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
                   name.c_str(), static_cast<long long>(s.job), s.end_us, s.tid);
    } else {
      sep();
      std::fprintf(f,
                   "{\"name\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                   "\"tid\": %d, \"args\": {\"span\": %zu, \"parent\": %lld, \"job\": %lld}}",
                   name.c_str(), s.start_us, s.end_us - s.start_us, s.tid, i,
                   static_cast<long long>(s.parent), static_cast<long long>(s.job));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
