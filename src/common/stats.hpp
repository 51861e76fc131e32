// Small numeric helpers used by tests and the benchmark harness.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "common/error.hpp"

namespace ssam {

/// Maximum absolute difference between two equally sized spans.
template <typename T>
[[nodiscard]] double max_abs_diff(std::span<const T> a, std::span<const T> b) {
  SSAM_REQUIRE(a.size() == b.size(), "span sizes differ");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

/// Max absolute difference normalized by the largest reference magnitude —
/// robust near zero-crossings where pointwise relative error is meaningless.
template <typename T>
[[nodiscard]] double normalized_max_diff(std::span<const T> got, std::span<const T> want) {
  SSAM_REQUIRE(got.size() == want.size(), "span sizes differ");
  double scale = 0.0;
  for (const T& v : want) scale = std::max(scale, std::abs(static_cast<double>(v)));
  if (scale == 0.0) scale = 1.0;
  return max_abs_diff(got, want) / scale;
}

/// Default verification tolerance for a floating point type, scaled for
/// accumulation length (number of fused multiply-adds per output).
template <typename T>
[[nodiscard]] double verify_tolerance(std::size_t accumulation_length) {
  const double eps = (sizeof(T) == 4) ? 1.2e-7 : 2.3e-16;
  return 64.0 * eps * static_cast<double>(accumulation_length == 0 ? 1 : accumulation_length);
}

struct RunningStats {
  std::size_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double x) {
    if (n == 0) { min = max = x; }
    min = std::min(min, x);
    max = std::max(max, x);
    ++n;
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
  }
  [[nodiscard]] double variance() const { return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0; }
};

}  // namespace ssam
