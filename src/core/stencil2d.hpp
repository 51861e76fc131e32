// SSAM 2D stencil kernel (paper Section 4.8, Listing 2), generalized to any
// stencil shape through the SystolicPlan column schedule, with in-register
// temporal blocking (Section 6.4) as its `t` knob.
//
// Unlike the convolution kernel, stencil coefficients travel as kernel
// arguments (immediates), not through shared memory — stencils have few
// coefficients (Section 4.8). Structure per sliding-window step:
//   for each column (increasing dx): shuffle partial sum up one lane, then
//   MAD every (dy, coeff) tap of the column against the register cache.
//
// Temporal blocking runs the same sweep t times in registers. The register
// cache is loaded once with C0 = P + t*(dy span) rows; each fused step
// applies the column sweep to every live row, producing the next level's
// rows in registers (the first step reads the register cache directly, so
// t = 1 is exactly the single-step kernel). Horizontal halo is paid in lanes
// (t * span lanes become invalid) and vertical halo in rows — no shared
// memory and no barriers at all, which is what makes temporal blocking
// "free" under SSAM. Border cells within t*r of the domain edge follow the
// ghost-zone approximation (replicate applied at load time only), as in
// every overlapped temporal blocking scheme.
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
  int t = 1;  ///< fused time steps per sweep (temporal blocking)
};

/// Registers per thread: the cached rows plus the live output level. A
/// single step keeps P accumulators; fused steps keep two full levels live
/// during the in-register relaxation.
[[nodiscard]] inline int stencil2d_ssam_regs(int rows_halo, int p, int t) {
  if (t == 1) return (p + rows_halo) + p + 10;
  return 2 * (p + t * rows_halo) + 12;
}

namespace detail {

/// One systolic column sweep (Listing 2): for each column in increasing dx,
/// shuffle the partial sum up one lane, then MAD every tap of the column
/// against `rows[r0 + tap.dy]`, the cached row at the tap's dy offset. An
/// empty pass yields zero. Forced inline: an outlined sweep made the
/// single-threaded functional sweeps of 2d9pt/2d25pt 5-13% slower (gcc 12).
template <typename T, typename Warp>
[[nodiscard, gnu::always_inline]] inline Reg<T> column_sweep(Warp& wc,
                                                             const ColumnPass<T>& pass,
                                                             const Reg<T>* rows, int r0) {
  Reg<T> sum = wc.uniform(T{});
  for (std::size_t ci = 0; ci < pass.columns.size(); ++ci) {
    if (ci > 0) sum = wc.shfl_up(sim::kFullMask, sum, 1);
    for (const ColumnTap<T>& tap : pass.columns[ci]) {
      sum = wc.mad(rows[r0 + tap.dy], tap.coeff, sum);
    }
  }
  return sum;
}

/// Validated geometry + launch config of one stencil sweep.
struct Stencil2dSetup {
  Blocking2D geom;
  sim::LaunchConfig cfg;
  int t = 1;
  int dy_span = 0;  ///< rows one fused step consumes
  int dy_min = 0;
  int anchor = 0;
  Index width = 0;
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
  const int t = opt.t;
  const int span = plan.span();
  const int dy_span = plan.rows_halo();
  SSAM_REQUIRE(t >= 1, "need at least one step");
  SSAM_REQUIRE(t == 1 || sim::kWarpSize - t * span >= 8, "too many fused steps for one warp");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  SSAM_REQUIRE(opt.p + t * dy_span <= kMaxRegCacheRows,
               "fused steps exceed the register cache capacity");
  Stencil2dSetup s;
  s.width = in.width();
  s.t = t;
  s.dy_span = dy_span;
  s.geom.span = t * span;           // lanes consumed by t fused sweeps
  s.geom.dx_min = t * plan.dx_min;  // leftmost input column offset
  s.geom.rows_halo = t * dy_span;
  s.geom.p = opt.p;
  s.geom.block_threads = opt.block_threads;
  s.cfg.grid = s.geom.grid(s.width, in.height());
  s.cfg.block_threads = opt.block_threads;
  s.cfg.regs_per_thread = stencil2d_ssam_regs(dy_span, opt.p, t);
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
  const int t = s.t;
  const int dy_span = s.dy_span;
  const int dy_min = s.dy_min;
  const int anchor = s.anchor;
  const Index width = s.width;
  const Index oy_origin = s.row_origin;
  const Index store_off = s.store_row_offset;
  return [=, pass = std::move(pass)](auto& blk) {
    for (int w = 0; w < blk.warp_count(); ++w) {
      auto& wc = blk.warp(w);
      const long long warp_linear =
          static_cast<long long>(blk.id().x) * geom.warps_per_block() + w;
      const Index col0 = geom.lane0_col(warp_linear);
      if (col0 - geom.dx_min >= width) continue;
      const Index row0 = oy_origin + static_cast<Index>(blk.id().y) * geom.p +
                         static_cast<Index>(t) * dy_min;

      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(in, col0, row0);

      // Step 0 reads the register cache; later steps ping-pong two level
      // buffers (the "two live levels" of the register estimate).
      InlineVec<Reg<T>, kMaxRegCacheRows> level[2];
      const Reg<T>* src = rc.data();
      int rows = geom.c();
      for (int step = 0; step < t; ++step) {
        auto& dst = level[step % 2];
        rows -= dy_span;
        dst.resize(rows);
        for (int r = 0; r < rows; ++r) dst[r] = column_sweep(wc, pass, src, r - dy_min);
        src = dst.begin();
      }

      // After t sweeps lane l's value sits at out_x = col(l) - t*anchor.
      store_valid_rows(wc, out, col0 - static_cast<Index>(t) * anchor,
                       oy_origin + store_off + static_cast<Index>(blk.id().y) * geom.p,
                       geom.p, geom.span,
                       [&](int i) -> const Reg<T>& { return src[i]; });
    }
  };
}

}  // namespace detail

/// Runs one stencil sweep of `opt.t` fused time steps over `in` into `out`
/// using the plan's shift schedule. The plan must be 2D (single dz = 0
/// pass).
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
