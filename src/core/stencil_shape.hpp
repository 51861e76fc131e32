// Stencil shapes of the paper's benchmark suite (Table 3) and factories for
// the standard star/box families.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "reference/stencil.hpp"

namespace ssam::core {

/// A named stencil: taps plus suite metadata.
template <typename T>
struct StencilShape {
  std::string name;
  int order = 1;       ///< k in Table 3
  int dims = 2;        ///< 2 or 3
  int fpp_paper = 0;   ///< FLOP-per-point as counted by the paper's Table 3
  std::vector<ref::Tap<T>> taps;

  /// FLOPs per point of our mul-per-tap implementation (2*taps - 1).
  [[nodiscard]] int fpp_measured() const { return 2 * static_cast<int>(taps.size()) - 1; }
};

namespace detail {
/// Deterministic, slightly asymmetric coefficients that sum to ~1 so that
/// iterated stencils stay bounded and symmetric indexing bugs are caught.
template <typename T>
void assign_coeffs(std::vector<ref::Tap<T>>& taps) {
  double sum = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double v = 1.0 + 0.01 * static_cast<double>(i + 1);
    taps[i].coeff = static_cast<T>(v);
    sum += v;
  }
  for (auto& t : taps) t.coeff = static_cast<T>(static_cast<double>(t.coeff) / sum);
}
}  // namespace detail

/// 2D star of radius k: 4k + 1 points.
template <typename T>
[[nodiscard]] StencilShape<T> star2d(int k) {
  StencilShape<T> s;
  s.name = "2d" + std::to_string(4 * k + 1) + "pt";
  s.order = k;
  s.dims = 2;
  s.taps.push_back({0, 0, 0, T{}});
  for (int r = 1; r <= k; ++r) {
    s.taps.push_back({r, 0, 0, T{}});
    s.taps.push_back({-r, 0, 0, T{}});
    s.taps.push_back({0, r, 0, T{}});
    s.taps.push_back({0, -r, 0, T{}});
  }
  detail::assign_coeffs(s.taps);
  return s;
}

/// 2D box of width x height points (odd or even extents; even extents get an
/// asymmetric radius split like an 8x8 "2d64pt").
template <typename T>
[[nodiscard]] StencilShape<T> box2d(int width, int height) {
  StencilShape<T> s;
  s.name = "2dbox" + std::to_string(width) + "x" + std::to_string(height);
  s.order = std::max(width, height) / 2;
  s.dims = 2;
  const int cx = (width - 1) / 2;
  const int cy = (height - 1) / 2;
  for (int dy = -cy; dy < height - cy; ++dy) {
    for (int dx = -cx; dx < width - cx; ++dx) {
      s.taps.push_back({dx, dy, 0, T{}});
    }
  }
  detail::assign_coeffs(s.taps);
  return s;
}

/// 3D star of radius k: 6k + 1 points.
template <typename T>
[[nodiscard]] StencilShape<T> star3d(int k) {
  StencilShape<T> s;
  s.name = "3d" + std::to_string(6 * k + 1) + "pt";
  s.order = k;
  s.dims = 3;
  s.taps.push_back({0, 0, 0, T{}});
  for (int r = 1; r <= k; ++r) {
    s.taps.push_back({r, 0, 0, T{}});
    s.taps.push_back({-r, 0, 0, T{}});
    s.taps.push_back({0, r, 0, T{}});
    s.taps.push_back({0, -r, 0, T{}});
    s.taps.push_back({0, 0, r, T{}});
    s.taps.push_back({0, 0, -r, T{}});
  }
  detail::assign_coeffs(s.taps);
  return s;
}

/// 3D box of extent (2k+1)^3.
template <typename T>
[[nodiscard]] StencilShape<T> box3d(int k) {
  StencilShape<T> s;
  const int e = 2 * k + 1;
  s.name = "3d" + std::to_string(e * e * e) + "pt";
  s.order = k;
  s.dims = 3;
  for (int dz = -k; dz <= k; ++dz) {
    for (int dy = -k; dy <= k; ++dy) {
      for (int dx = -k; dx <= k; ++dx) {
        s.taps.push_back({dx, dy, dz, T{}});
      }
    }
  }
  detail::assign_coeffs(s.taps);
  return s;
}

/// 3D 19-point Poisson stencil (k = 1): faces + edges + center, the classic
/// compact finite-difference Poisson operator of Rawat et al.'s suite.
template <typename T>
[[nodiscard]] StencilShape<T> poisson3d() {
  StencilShape<T> s;
  s.name = "poisson";
  s.order = 1;
  s.dims = 3;
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (std::abs(dx) + std::abs(dy) + std::abs(dz) <= 2) {
          s.taps.push_back({dx, dy, dz, T{}});
        }
      }
    }
  }
  detail::assign_coeffs(s.taps);
  return s;
}

}  // namespace ssam::core
