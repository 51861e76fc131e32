// Self-tests of the benchmark's own logic: the tail-percentile rule, the
// open-loop sojourn, span self time, and seeded generator determinism.
// Exits nonzero on the first failed check.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "trace.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace pb = perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  check(pb::nearest_rank(1000, 99) == 990, "p99 of 1000 samples is rank 990");
  check(pb::samples_beyond(1000, 99) == 10, "10 samples lie beyond p99 of 1000");
  check(pb::samples_beyond(999, 99) == 9, "9 samples lie beyond p99 of 999");
  const pb::Tail ok = pb::tail_percentile(one_to(1000), 99);
  check(ok.supported && ok.value == 990.0, "p99 reported when 10 samples lie beyond it");
  const pb::Tail few = pb::tail_percentile(one_to(999), 99);
  check(!few.supported && few.value == 999.0, "too few samples: maximum, flagged");
  const pb::Tail tiny = pb::tail_percentile(one_to(12), 99);
  check(!tiny.supported && tiny.value == 12.0, "12 samples: maximum, flagged");
  check(pb::median(one_to(4)) == 2.5 && pb::median(one_to(5)) == 3.0, "median");
  check(pb::percentile(one_to(20), 10) == 2.0 && pb::percentile(one_to(5), 10) == 1.0,
        "p10 by nearest rank; the minimum below 10 samples");

  // Twenty windows of 1000 samples, all but `clean` of them hit by a burst
  // that doubles every sample. The p10 over windows is rank 2 of 20.
  auto hit_windows = [](int clean) {
    std::vector<std::vector<double>> w(20, one_to(1000));
    for (std::size_t i = static_cast<std::size_t>(clean); i < w.size(); ++i) {
      for (double& x : w[i]) x *= 2.0;
    }
    return w;
  };
  const pb::WindowedTail w = pb::windowed_percentile(hit_windows(2), 99);
  check(w.windows == 20 && w.supported == 20 && w.value == 990.0,
        "windowed p99, p10 over windows: two clean windows in twenty give a clean p99");
  check(pb::windowed_percentile(hit_windows(1), 99).value == 1980.0,
        "windowed p99, p10 over windows: one clean window in twenty does not");
  std::vector<std::vector<double>> windows = hit_windows(20);
  windows.push_back({});
  windows.push_back(one_to(12));
  const pb::WindowedTail sparse = pb::windowed_percentile(windows, 99);
  check(sparse.windows == 21 && sparse.supported == 20,
        "windowed p99: empty windows skipped, sparse windows counted unsupported");

  // Windows 1..5 hold only the value i; window i lost steal[i] to steal.
  std::vector<std::vector<double>> five;
  for (int i = 1; i <= 5; ++i) five.push_back({static_cast<double>(i)});
  const std::vector<std::vector<double>> calm =
      pb::calmer_half(five, {0.30, 0.0, 0.05, 0.0, 0.20});
  check(calm.size() == 3 && calm[0][0] == 2.0 && calm[1][0] == 4.0 && calm[2][0] == 3.0,
        "calmer half: the least-stolen windows, ties in order, at least half");
  check(pb::calmer_half({{7.0}}, {0.9}).size() == 1, "calmer half of one window: itself");
  check(near(pb::geomean({1.0, 4.0, 16.0}), 4.0), "geomean");
}

void sojourn() {
  // Due at 10 ms, sent at 12.5 ms (2.5 ms late), queued 1 ms, ran 3 ms.
  check(near(pb::sojourn_ms(10.0, 12.5, 1.0, 3.0), 6.5),
        "sojourn counts generator lateness, queueing and execution");
  check(near(pb::sojourn_ms(10.0, 10.0, 0.0, 3.0), 3.0), "on-time, unqueued job: exec only");
}

void self_time() {
  check(near(pb::self_time_us(0, 100, {}), 100.0), "no children: self = duration");
  check(near(pb::self_time_us(0, 100, {{10, 30}, {20, 40}, {90, 120}}), 60.0),
        "overlapping and protruding children are subtracted once, clipped");
  check(near(pb::self_time_us(0, 100, {{0, 100}, {5, 6}}), 0.0), "fully covered: self 0");

  pb::Tracer t;
  {
    pb::ScopedSpan outer(&t, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      pb::ScopedSpan inner(&t, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  double outer_total = 0, outer_self = 0, inner_total = 0, inner_self = 0;
  for (const auto& row : t.self_times()) {
    if (row.name == "outer") {
      outer_total = row.total_ms;
      outer_self = row.self_ms;
    } else if (row.name == "inner") {
      inner_total = row.total_ms;
      inner_self = row.self_ms;
    }
  }
  check(near(inner_total, inner_self), "leaf span: self = total");
  check(near(outer_self, outer_total - inner_total), "parent self = total - child");
  pb::ScopedSpan off(nullptr, "ignored");
  check(off.id() == -1, "null tracer records nothing");
}

void generator_determinism() {
  const std::vector<bool> tunable = {true, false, true, true};
  const auto a = pb::poisson_schedule(42, 1000.0, 2.0, tunable, 0.25, 3);
  const auto b = pb::poisson_schedule(42, 1000.0, 2.0, tunable, 0.25, 3);
  const auto c = pb::poisson_schedule(43, 1000.0, 2.0, tunable, 0.25, 3);
  check(a == b, "same seed: same arrival sequence");
  check(a != c, "different seed: different arrival sequence");
  check(a.size() > 1800 && a.size() < 2200, "about rate x seconds arrivals");
  bool ordered = true;
  bool tune_ok = true;
  int tuned = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at_ms < a[i - 1].at_ms) ordered = false;
    if (a[i].auto_tune && !tunable[static_cast<std::size_t>(a[i].tmpl)]) tune_ok = false;
    tuned += a[i].auto_tune ? 1 : 0;
  }
  check(ordered && a.back().at_ms < 2000.0, "arrivals ordered within the window");
  check(tune_ok && tuned > 0, "auto_tune only on tunable templates");

  bool perm = true;
  bool differs = false;
  for (int cyc = 0; cyc < 8; ++cyc) {
    const auto o = pb::cycle_order(7, cyc, 4);
    std::vector<int> seen(4, 0);
    for (int k : o) ++seen[static_cast<std::size_t>(k)];
    perm = perm && seen == std::vector<int>(4, 1) && o == pb::cycle_order(7, cyc, 4);
    differs = differs || o != pb::cycle_order(8, cyc, 4);
  }
  check(perm, "cycle order: a deterministic permutation of every kind");
  check(differs, "cycle order depends on the seed");

  std::vector<float> serial(3'000'000);
  ssam::fill_random(serial, 99);
  std::vector<float> chunked(serial.size());
  pb::fill_seeded(chunked.data(), chunked.size(), 99);
  check(serial == chunked, "chunked seeded fill equals the serial SplitMix64 fill");
  check(pb::parallel_hash(serial.data(), serial.size()) ==
                pb::parallel_hash(chunked.data(), chunked.size()) &&
            pb::parallel_hash(serial.data(), serial.size()) !=
                pb::parallel_hash(serial.data(), serial.size() - 1),
        "output hash: equal inputs agree, different lengths differ");
}

}  // namespace

int main() {
  percentile_rule();
  sojourn();
  self_time();
  generator_determinism();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
