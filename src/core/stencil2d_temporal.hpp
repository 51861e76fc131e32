// SSAM temporal blocking (paper Section 6.4): t fused time steps entirely in
// the register cache.
//
// The register cache is loaded once with C0 = P + t*(dy span) rows; each
// fused step applies the systolic column sweep to every live row, producing
// the next level's rows in registers. Horizontal halo is paid in lanes
// (t * span lanes become invalid) and vertical halo in rows — no shared
// memory and no barriers at all, which is what makes temporal blocking "free"
// under SSAM (the paper's point in Section 6.4).
//
// Border cells within t*r of the domain edge follow the ghost-zone
// approximation (replicate applied at load time only), as in every
// overlapped temporal blocking scheme.
#pragma once

#include <utility>

#include "core/stencil2d.hpp"

namespace ssam::core {

struct TemporalSsamOptions {
  int t = 4;
  int p = 4;
  int block_threads = 128;
};

[[nodiscard]] inline int stencil2d_ssam_temporal_regs(int rows_halo, int t, int p) {
  const int c0 = p + t * rows_halo;
  return 2 * c0 + 12;  // two live levels during the in-register relaxation
}

namespace detail {

template <typename T>
[[nodiscard]] Stencil2dSetup stencil2d_temporal_setup(const GridView2D<const T>& in,
                                                      const SystolicPlan<T>& plan,
                                                      const TemporalSsamOptions& opt) {
  SSAM_REQUIRE(plan.passes.size() == 1 && plan.passes.front().dz == 0,
               "temporal SSAM kernel is 2D");
  const int t = opt.t;
  const int span = plan.span();
  const int dy_span = plan.rows_halo();
  SSAM_REQUIRE(t >= 1, "need at least one step");
  SSAM_REQUIRE(sim::kWarpSize - t * span >= 8, "too many fused steps for one warp");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  SSAM_REQUIRE(opt.p + t * dy_span <= kMaxRegCacheRows,
               "fused steps exceed the register cache capacity");
  Stencil2dSetup s;
  s.width = in.width();
  s.height = in.height();
  s.geom.span = t * span;           // lanes consumed by t fused sweeps
  s.geom.dx_min = t * plan.dx_min;  // leftmost input column offset
  s.geom.rows_halo = t * dy_span;
  s.geom.p = opt.p;
  s.geom.block_threads = opt.block_threads;
  s.cfg.grid = s.geom.grid(s.width, s.height);
  s.cfg.block_threads = opt.block_threads;
  s.cfg.regs_per_thread = stencil2d_ssam_temporal_regs(dy_span, t, opt.p);
  s.dy_min = plan.dy_min;
  s.anchor = plan.anchor_dx;
  return s;
}

/// Mode-generic temporal body; all captures by value (pass owns its taps) so
/// the body is self-contained.
template <typename T>
[[nodiscard]] auto make_stencil2d_temporal_body(const Stencil2dSetup& s,
                                                GridView2D<const T> in, ColumnPass<T> pass,
                                                int t, int dy_span, GridView2D<T> out) {
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
      // base_t = oy0 + t*dy_min  =>  base_0 = oy0 + t*dy_min.
      const Index row0 = oy_origin + static_cast<Index>(blk.id().y) * geom.p +
                         static_cast<Index>(t) * dy_min;

      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(in, col0, row0);

      // Level 0 = cached input rows; the in-register relaxation ping-pongs
      // between two fixed buffers (the "two live levels" of the register
      // estimate), one level per fused step.
      InlineVec<Reg<T>, kMaxRegCacheRows> buf_a(geom.c());
      InlineVec<Reg<T>, kMaxRegCacheRows> buf_b;
      for (int r = 0; r < geom.c(); ++r) buf_a[r] = rc.row(r);
      auto* cur = &buf_a;
      auto* nxt = &buf_b;

      for (int s = 0; s < t; ++s) {
        const int next_rows = cur->size() - dy_span;
        nxt->resize(next_rows);
        for (int r = 0; r < next_rows; ++r) {
          Reg<T> sum = wc.uniform(T{});
          for (std::size_t ci = 0; ci < pass.columns.size(); ++ci) {
            if (ci > 0) sum = wc.shfl_up(sim::kFullMask, sum, 1);
            for (const ColumnTap<T>& tap : pass.columns[ci]) {
              sum = wc.mad((*cur)[r + tap.dy - dy_min], tap.coeff, sum);
            }
          }
          (*nxt)[r] = sum;
        }
        std::swap(cur, nxt);
      }

      // After t sweeps lane l's value sits at out_x = col(l) - t*anchor.
      store_valid_rows(wc, out, col0 - static_cast<Index>(t) * anchor,
                       oy_origin + store_off + static_cast<Index>(blk.id().y) * geom.p,
                       geom.p, geom.span,
                       [&](int i) -> const Reg<T>& { return (*cur)[i]; });
    }
  };
}

}  // namespace detail

template <typename T>
KernelStats stencil2d_ssam_temporal(const sim::ArchSpec& arch,
                                    const GridView2D<const T>& in,
                                    const SystolicPlan<T>& plan, GridView2D<T> out,
                                    const TemporalSsamOptions& opt = {},
                                    ExecMode mode = ExecMode::kFunctional,
                                    SampleSpec sample = {}) {
  const detail::Stencil2dSetup s = detail::stencil2d_temporal_setup(in, plan, opt);
  auto body = detail::make_stencil2d_temporal_body<T>(s, in, plan.passes.front(), opt.t,
                                                      plan.rows_halo(), out);
  return sim::launch(arch, s.cfg, body, mode, sample);
}

template <typename T>
KernelStats stencil2d_ssam_temporal(const sim::ArchSpec& arch,
                                    const GridView2D<const T>& in,
                                    const StencilShape<T>& shape, GridView2D<T> out,
                                    const TemporalSsamOptions& opt = {},
                                    ExecMode mode = ExecMode::kFunctional,
                                    SampleSpec sample = {}) {
  return stencil2d_ssam_temporal(arch, in, build_plan(shape.taps), out, opt, mode, sample);
}

}  // namespace ssam::core
