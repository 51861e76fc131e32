// SSAM 2D stencil kernel (paper Section 4.8, Listing 2), generalized to any
// stencil shape through the SystolicPlan column schedule.
//
// Unlike the convolution kernel, stencil coefficients travel as kernel
// arguments (immediates), not through shared memory — stencils have few
// coefficients (Section 4.8). Structure per sliding-window step:
//   for each column (increasing dx): shuffle partial sum up one lane, then
//   MAD every (dy, coeff) tap of the column against the register cache.
#pragma once

#include "common/grid.hpp"
#include "core/dgraph.hpp"
#include "core/kernel_common.hpp"
#include "core/stencil_shape.hpp"
#include "rcache/blocking.hpp"
#include "rcache/register_cache.hpp"

namespace ssam::core {

struct StencilOptions {
  int p = 4;
  int block_threads = 128;
};

[[nodiscard]] inline int stencil2d_ssam_regs(const int rows_halo, int p) {
  return (p + rows_halo) + p + 10;
}

namespace detail {

/// Validated geometry + launch config of one stencil sweep.
struct Stencil2dSetup {
  Blocking2D geom;
  sim::LaunchConfig cfg;
  int dy_min = 0;
  int anchor = 0;
  Index width = 0;
  Index height = 0;
  /// Output-row origin of the sweep. The full-grid entry points leave this
  /// 0; the persistent iteration engine (core/iterate_persistent.hpp) runs
  /// the same body over a tile's residence buffer by shifting the origin to
  /// the first band row and shrinking `cfg.grid.y` to the band.
  Index row_origin = 0;
  /// Added to the store row only — lets the engine's fused first/last
  /// sweeps read one array (global grid or residence buffer) and store into
  /// the other without an intermediate copy.
  Index store_row_offset = 0;
};

template <typename T>
[[nodiscard]] Stencil2dSetup stencil2d_setup(const GridView2D<const T>& in,
                                             const SystolicPlan<T>& plan,
                                             const StencilOptions& opt) {
  SSAM_REQUIRE(plan.passes.size() == 1 && plan.passes.front().dz == 0,
               "stencil2d_ssam needs a single-plane plan");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  Stencil2dSetup s;
  s.width = in.width();
  s.height = in.height();
  s.geom.span = plan.span();
  s.geom.dx_min = plan.dx_min;
  s.geom.rows_halo = plan.rows_halo();
  s.geom.p = opt.p;
  s.geom.block_threads = opt.block_threads;
  s.cfg.grid = s.geom.grid(s.width, s.height);
  s.cfg.block_threads = opt.block_threads;
  s.cfg.regs_per_thread = stencil2d_ssam_regs(s.geom.rows_halo, opt.p);
  s.dy_min = plan.dy_min;
  s.anchor = plan.anchor_dx;
  return s;
}

/// Mode-generic stencil body. The column pass is captured *by value* (it
/// owns its tap vectors) so the body is self-contained.
template <typename T>
[[nodiscard]] auto make_stencil2d_body(const Stencil2dSetup& s, GridView2D<const T> in,
                                       ColumnPass<T> pass, GridView2D<T> out) {
  const Blocking2D geom = s.geom;
  const int dy_min = s.dy_min;
  const int anchor = s.anchor;
  const Index width = s.width;
  const Index height = s.height;
  const Index oy_origin = s.row_origin;
  const Index store_off = s.store_row_offset;
  return [=, pass = std::move(pass)](auto& blk) {
    for (int w = 0; w < blk.warp_count(); ++w) {
      auto& wc = blk.warp(w);
      const long long warp_linear =
          static_cast<long long>(blk.id().x) * geom.warps_per_block() + w;
      const Index col0 = geom.lane0_col(warp_linear);
      if (col0 - geom.dx_min >= width) continue;
      const Index row0 = oy_origin + static_cast<Index>(blk.id().y) * geom.p + dy_min;

      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(in, col0, row0);

      InlineVec<Reg<T>, kMaxOutputsPerThread> result(geom.p);
      for (int i = 0; i < geom.p; ++i) {
        Reg<T> sum = wc.uniform(T{});
        for (std::size_t ci = 0; ci < pass.columns.size(); ++ci) {
          if (ci > 0) sum = wc.shfl_up(sim::kFullMask, sum, 1);
          for (const ColumnTap<T>& tap : pass.columns[ci]) {
            sum = wc.mad(rc.row(i + tap.dy - dy_min), tap.coeff, sum);
          }
        }
        result[i] = sum;
      }

      store_valid_rows(wc, out, col0 - anchor,
                       oy_origin + store_off + static_cast<Index>(blk.id().y) * geom.p,
                       geom.p, geom.span,
                       [&](int i) -> const Reg<T>& { return result[i]; });
    }
  };
}

}  // namespace detail

/// Runs one stencil sweep over `in` into `out` using the plan's shift
/// schedule. The plan must be 2D (single dz = 0 pass).
template <typename T>
KernelStats stencil2d_ssam(const sim::ArchSpec& arch, const GridView2D<const T>& in,
                           const SystolicPlan<T>& plan, GridView2D<T> out,
                           const StencilOptions& opt = {},
                           ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  const detail::Stencil2dSetup s = detail::stencil2d_setup(in, plan, opt);
  auto body = detail::make_stencil2d_body<T>(s, in, plan.passes.front(), out);
  return sim::launch(arch, s.cfg, body, mode, sample);
}

/// Convenience overload building the minimal plan from a shape.
template <typename T>
KernelStats stencil2d_ssam(const sim::ArchSpec& arch, const GridView2D<const T>& in,
                           const StencilShape<T>& shape, GridView2D<T> out,
                           const StencilOptions& opt = {},
                           ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  return stencil2d_ssam(arch, in, build_plan(shape.taps), out, opt, mode, sample);
}

}  // namespace ssam::core
