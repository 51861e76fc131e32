// Shared helpers of the benchmark: clocks, statistics, output hashing,
// seeded schedules and the metric record every workload fills in.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

// ------------------------------------------------------------- statistics

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest rank of the `percent`-th percentile of n samples:
/// ceil(percent * n / 100), computed in integers so p99 of 1000 samples is
/// rank 990 exactly.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, int percent) {
  const std::size_t r = (static_cast<std::size_t>(percent) * n + 99) / 100;
  return std::clamp<std::size_t>(r, 1, n);
}

/// Samples lying beyond the nearest-rank `percent`-th percentile.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, int percent) {
  return n == 0 ? 0 : n - nearest_rank(n, percent);
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a percentile.
inline constexpr std::size_t kMinBeyond = 10;

struct Tail {
  double value = 0.0;
  bool supported = false;  ///< false: too few samples; value is the maximum
};

/// The `percent`-th percentile when kMinBeyond samples lie beyond it,
/// otherwise the maximum sample, flagged as unsupported.
[[nodiscard]] inline Tail tail_percentile(std::vector<double> v, int percent) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.supported = samples_beyond(v.size(), percent) >= kMinBeyond;
  t.value = t.supported ? v[nearest_rank(v.size(), percent) - 1] : v.back();
  return t;
}

/// Nearest-rank percentile regardless of support (per-layer figures that
/// carry their sample count alongside).
[[nodiscard]] inline double percentile(std::vector<double> v, int percent) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), percent) - 1];
}

struct WindowedTail {
  double value = 0.0;
  std::size_t windows = 0;
  std::size_t supported = 0;  ///< windows with kMinBeyond samples beyond
};

/// The 10th percentile across time windows of each window's `percent`-th
/// percentile (tail_percentile per window). Interference from other guests
/// of the host only ever adds latency, and only to the windows it falls in,
/// so this is the latency of the fast windows; it moves only when nine
/// windows in ten are hit. Empty windows are skipped.
[[nodiscard]] inline WindowedTail windowed_percentile(
    const std::vector<std::vector<double>>& windows, int percent) {
  WindowedTail w;
  std::vector<double> per_window;
  for (const std::vector<double>& v : windows) {
    if (v.empty()) continue;
    const Tail t = tail_percentile(v, percent);
    per_window.push_back(t.value);
    w.supported += t.supported ? 1 : 0;
  }
  w.windows = per_window.size();
  w.value = percentile(std::move(per_window), 10);
  return w;
}

/// The calmer half of `windows` (at least one): those with the least host
/// time stolen by the hypervisor, `steal[i]` being window i's share. Steal
/// comes in bursts that can cover whole seconds on every vCPU and double
/// sub-millisecond latencies; the percentile of the fast windows above
/// cannot skip a burst that covers nine windows in ten, this can when it
/// covers fewer than half.
[[nodiscard]] inline std::vector<std::vector<double>> calmer_half(
    const std::vector<std::vector<double>>& windows, const std::vector<double>& steal) {
  std::vector<std::size_t> order(windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  order.resize((order.size() + 1) / 2);
  std::vector<std::vector<double>> out;
  for (std::size_t i : order) out.push_back(windows[i]);
  return out;
}

[[nodiscard]] inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Open-loop sojourn of one job: from when it was due to be sent to its
/// result. A late generator (submit after the scheduled time) is charged to
/// the job, so a stall counts against every request it delayed.
[[nodiscard]] inline double sojourn_ms(double scheduled_ms, double submitted_ms,
                                       double queue_ms, double exec_ms) {
  return (submitted_ms - scheduled_ms) + queue_ms + exec_ms;
}

// ------------------------------------------------------------ process

/// Peak resident set of this process, MB (1e6 bytes).
[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ------------------------------------------------------------- hashing

/// 64-bit hash of a byte range: four independent multiply-xor lanes over
/// 8-byte words, then the tail. Output equality checks compare these, so
/// only determinism and spread matter, not cryptographic strength.
[[nodiscard]] inline std::uint64_t hash_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t h[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                        0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + i + 8 * static_cast<std::size_t>(l), 8);
      h[l] = (h[l] ^ w) * kMul;
      h[l] ^= h[l] >> 29;
    }
  }
  std::uint64_t out = static_cast<std::uint64_t>(n);
  for (std::uint64_t lane : h) out = (out ^ lane) * kMul;
  for (; i < n; ++i) out = (out ^ p[i]) * 0x100000001B3ull;
  return out ^ (out >> 31);
}

// ------------------------------------------------------ seeded schedules

/// One open-loop arrival: when it is due (ms after the start), which job
/// template it instantiates, its tenant, and whether it resolves through
/// the autotuner.
struct Arrival {
  double at_ms = 0.0;
  int tmpl = 0;
  int tenant = 0;
  bool auto_tune = false;

  [[nodiscard]] bool operator==(const Arrival& o) const {
    return at_ms == o.at_ms && tmpl == o.tmpl && tenant == o.tenant &&
           auto_tune == o.auto_tune;
  }
};

/// Poisson arrivals at `rate_per_s` over [0, seconds): exponential gaps by
/// inversion, a uniform template, a uniform tenant, and auto_tune on a
/// `tune_share` fraction of arrivals whose template is tunable. A pure
/// function of its arguments (SplitMix64, no library distributions), so a
/// seed names one exact request sequence on every platform.
[[nodiscard]] inline std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                                           double rate_per_s,
                                                           double seconds,
                                                           const std::vector<bool>& tunable,
                                                           double tune_share, int tenants) {
  ssam::SplitMix64 rng(seed ^ 0x5EEDA11C0FFEEull);
  std::vector<Arrival> out;
  const double mean_gap_ms = 1e3 / rate_per_s;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_unit()) * mean_gap_ms;
    if (t >= seconds * 1e3) break;
    Arrival a;
    a.at_ms = t;
    a.tmpl = static_cast<int>(rng.next_below(tunable.size()));
    a.tenant = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(tenants)));
    const double u = rng.next_unit();
    a.auto_tune = tunable[static_cast<std::size_t>(a.tmpl)] && u < tune_share;
    out.push_back(a);
  }
  return out;
}

/// The order the closed loop runs `kinds` job kinds in during cycle
/// `cycle`: a seeded Fisher-Yates permutation, so every cycle runs each
/// kind exactly once.
[[nodiscard]] inline std::vector<int> cycle_order(std::uint64_t seed, int cycle, int kinds) {
  ssam::SplitMix64 rng(seed * 0x100000001B3ull + static_cast<std::uint64_t>(cycle));
  std::vector<int> order(static_cast<std::size_t>(kinds));
  for (int i = 0; i < kinds; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = kinds - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  return order;
}

// -------------------------------------------------------------- results

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: the metrics by name, the operation
/// counts behind the result line, and free-form report fields (JSON
/// values, already encoded) for the detailed report file.
struct Result {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::string> notes;
  /// The workload's headline end-to-end figure and its direction, used to
  /// price tracing (traced vs untraced run of the same workload).
  double headline = 0.0;
  bool headline_higher_is_better = true;
};

}  // namespace perfbench
