// Dependency extraction: the "D" of the SSAM four-tuple J = (O, D, X, Y)
// (paper Sections 3.4 and 5.4).
//
// For the regular kernels the paper targets, the dependency graph reduces to
// a schedule of systolic column passes: each pass sweeps filter columns
// left-to-right, shifting partial sums to the +x neighbour lane between
// columns (Figure 2c). Horizontal shifts cost a shuffle each, so Section 5.4
// prescribes minimizing them — SystolicPlan computes both the minimal
// schedule and a naive dense schedule so the ablation bench can quantify
// the difference.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "reference/stencil.hpp"

namespace ssam::core {

/// One (dy, coefficient) entry inside a filter column.
template <typename T>
struct ColumnTap {
  int dy = 0;
  T coeff{};
};

/// One systolic sweep: all taps sharing a z-offset, organized by x-offset
/// column. Columns are processed in increasing dx with one shuffle between
/// consecutive columns; empty interior columns still shift (the partial sum
/// must keep moving) but execute no MADs.
template <typename T>
struct ColumnPass {
  int dz = 0;
  int dx_min = 0;
  int dx_max = 0;
  int dy_min = 0;
  int dy_max = 0;
  /// columns[dx - dx_min] lists the taps of that column.
  std::vector<std::vector<ColumnTap<T>>> columns;

  /// Shuffles needed by this pass (the Section 5.4 cost metric).
  [[nodiscard]] int shifts() const { return dx_max - dx_min; }
};

/// The complete shift schedule for a stencil/convolution: one pass per
/// z-offset (2D kernels have exactly one pass, dz = 0).
template <typename T>
struct SystolicPlan {
  std::vector<ColumnPass<T>> passes;  ///< ordered by dz
  int anchor_dx = 0;   ///< global alignment: out_x = input_col(lane) - anchor
  int dx_min = 0;      ///< leftmost column offset across passes
  int dy_min = 0;
  int dy_max = 0;

  /// Lanes consumed by halo: valid output lanes are [span, WarpSize).
  [[nodiscard]] int span() const { return anchor_dx - dx_min; }

  /// Rows of register cache beyond the sliding window: C = P + rows_halo.
  [[nodiscard]] int rows_halo() const { return dy_max - dy_min; }

  /// Total horizontal shifts per sliding-window step (Section 5.4 metric).
  [[nodiscard]] int horizontal_shifts() const {
    int s = 0;
    for (const auto& p : passes) s += p.shifts();
    return s;
  }

  [[nodiscard]] int rz() const {
    int r = 0;
    for (const auto& p : passes) r = std::max(r, std::abs(p.dz));
    return r;
  }
};

namespace detail {
template <typename T>
ColumnPass<T> build_pass(int dz, std::vector<ref::Tap<T>> taps, bool dense, int dense_radius) {
  ColumnPass<T> pass;
  pass.dz = dz;
  SSAM_REQUIRE(!taps.empty(), "empty pass");
  pass.dx_min = taps.front().dx;
  pass.dx_max = taps.front().dx;
  pass.dy_min = taps.front().dy;
  pass.dy_max = taps.front().dy;
  for (const auto& t : taps) {
    pass.dx_min = std::min(pass.dx_min, t.dx);
    pass.dx_max = std::max(pass.dx_max, t.dx);
    pass.dy_min = std::min(pass.dy_min, t.dy);
    pass.dy_max = std::max(pass.dy_max, t.dy);
  }
  if (dense) {
    // Naive schedule: sweep the full [-r, r] column range regardless of
    // which columns hold taps (what a non-optimized mapping would emit).
    pass.dx_min = std::min(pass.dx_min, -dense_radius);
    pass.dx_max = std::max(pass.dx_max, dense_radius);
  }
  pass.columns.resize(static_cast<std::size_t>(pass.dx_max - pass.dx_min + 1));
  for (const auto& t : taps) {
    pass.columns[static_cast<std::size_t>(t.dx - pass.dx_min)].push_back(
        ColumnTap<T>{t.dy, t.coeff});
  }
  return pass;
}
}  // namespace detail

/// Builds the minimal-shift schedule for a tap set. If `dense` is set, every
/// pass sweeps the full square column range (the ablation's naive D).
template <typename T>
[[nodiscard]] SystolicPlan<T> build_plan(const std::vector<ref::Tap<T>>& taps,
                                         bool dense = false) {
  SSAM_REQUIRE(!taps.empty(), "cannot build a plan for an empty stencil");
  int rx = 0;
  for (const auto& t : taps) rx = std::max(rx, std::abs(t.dx));

  // Group taps by dz, ascending.
  std::vector<int> dzs;
  for (const auto& t : taps) {
    if (std::find(dzs.begin(), dzs.end(), t.dz) == dzs.end()) dzs.push_back(t.dz);
  }
  std::sort(dzs.begin(), dzs.end());

  SystolicPlan<T> plan;
  for (int dz : dzs) {
    std::vector<ref::Tap<T>> group;
    for (const auto& t : taps) {
      if (t.dz == dz) group.push_back(t);
    }
    plan.passes.push_back(detail::build_pass(dz, std::move(group), dense, rx));
  }
  plan.anchor_dx = plan.passes.front().dx_max;
  plan.dx_min = plan.passes.front().dx_min;
  plan.dy_min = plan.passes.front().dy_min;
  plan.dy_max = plan.passes.front().dy_max;
  for (const auto& p : plan.passes) {
    plan.anchor_dx = std::max(plan.anchor_dx, p.dx_max);
    plan.dx_min = std::min(plan.dx_min, p.dx_min);
    plan.dy_min = std::min(plan.dy_min, p.dy_min);
    plan.dy_max = std::max(plan.dy_max, p.dy_max);
  }
  return plan;
}

}  // namespace ssam::core
