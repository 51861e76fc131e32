// SSAM 3D stencil kernel (paper Section 4.9).
//
// A block of WZ warps covers WZ consecutive z-planes of a 3D sub-grid with
// overlapped blocking in z: the outer rz warps on each side are halo warps.
// Every warp caches its plane's rows in registers, runs one systolic column
// sweep per z-offset group of the plan, keeps the dz = 0 partial sums in
// registers, and publishes the dz != 0 partial sums to shared memory — the
// only inter-warp communication (shuffles stay intra-warp, as the paper
// requires). After __syncthreads, interior warps combine their own dz = 0
// sums with neighbours' published sums and store.
#pragma once

#include <vector>

#include "common/grid.hpp"
#include "core/dgraph.hpp"
#include "core/kernel_common.hpp"
#include "core/stencil_shape.hpp"
#include "rcache/blocking.hpp"
#include "rcache/register_cache.hpp"

namespace ssam::core {

struct Stencil3DOptions {
  int p = 2;      ///< sliding-window outputs per thread (rows)
  int warps = 8;  ///< planes per block
};

/// Bound on the flat per-block register state (warps x P partial sums) the
/// 3D kernels keep across barriers without heap allocation.
inline constexpr int kMaxBlockRegRows = 320;

[[nodiscard]] inline int stencil3d_ssam_regs(int rows_halo, int p, int passes) {
  return (p + rows_halo) + p * passes + 12;
}

namespace detail {

/// Validated geometry, launch config, and *owned* pass schedule of one 3D
/// sweep. Owning copies of the passes (rather than pointers into the
/// caller's plan) make the body self-contained.
template <typename T>
struct Stencil3dSetup {
  Blocking2D geom;
  Blocking3D geom3;
  sim::LaunchConfig cfg;
  int dy_min = 0;
  int anchor = 0;
  int n_off = 0;
  int vp = 0;
  Index nx = 0;
  Index ny = 0;
  Index nz = 0;
  /// Output z-window of the sweep. Full-grid entry points cover [0, nz);
  /// the persistent iteration engine (core/iterate_persistent.hpp) shifts
  /// the origin into a tile's residence buffer and stores only the band
  /// planes [z_store_lo, z_store_hi), shrinking `cfg.grid.z` to match.
  Index z_origin = 0;
  Index z_store_lo = 0;
  Index z_store_hi = 0;  ///< set to nz by stencil3d_setup
  /// Added to the store plane only — lets the engine's fused first/last
  /// sweeps read one array (global grid or residence buffer) and store into
  /// the other without an intermediate copy.
  Index z_store_offset = 0;
  bool has_center = false;
  ColumnPass<T> center_pass;
  std::vector<ColumnPass<T>> off_passes;  ///< dz != 0 passes, by value
};

template <typename T>
[[nodiscard]] Stencil3dSetup<T> stencil3d_setup(const GridView3D<const T>& in,
                                                const SystolicPlan<T>& plan,
                                                const Stencil3DOptions& opt) {
  const int rz = plan.rz();
  SSAM_REQUIRE(opt.warps > 2 * rz, "need more warps than z halo planes");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  SSAM_REQUIRE(opt.warps * opt.p <= kMaxBlockRegRows,
               "per-block partial-sum state exceeds the inline bound");
  Stencil3dSetup<T> s;
  s.nx = in.nx();
  s.ny = in.ny();
  s.nz = in.nz();

  // In-plane geometry, anchored at the global dx extremes.
  s.geom.span = plan.span();
  s.geom.dx_min = plan.dx_min;
  s.geom.rows_halo = plan.rows_halo();
  s.geom.p = opt.p;
  s.geom.block_threads = opt.warps * sim::kWarpSize;

  s.geom3.plane = s.geom;
  s.geom3.rz = rz;
  s.geom3.warps = opt.warps;

  // Off-plane passes (dz != 0) publish P rows of 32 lanes each to smem.
  for (const auto& p : plan.passes) {
    if (p.dz == 0) {
      s.center_pass = p;
      s.has_center = true;
    } else {
      s.off_passes.push_back(p);
    }
  }
  s.n_off = static_cast<int>(s.off_passes.size());

  s.cfg.grid = s.geom3.grid(s.nx, s.ny, s.nz);
  s.cfg.block_threads = s.geom3.block_threads();
  s.cfg.regs_per_thread =
      stencil3d_ssam_regs(s.geom.rows_halo, opt.p, static_cast<int>(plan.passes.size()));

  s.dy_min = plan.dy_min;
  s.anchor = plan.anchor_dx;
  s.vp = s.geom3.valid_planes();
  s.z_store_hi = s.nz;
  return s;
}

/// Mode-generic 3D stencil body. The setup (including the owned passes) is
/// captured by value, so the body outlives the caller's plan.
template <typename T>
[[nodiscard]] auto make_stencil3d_body(Stencil3dSetup<T> setup, GridView3D<const T> in,
                                       GridView3D<T> out) {
  return [s = std::move(setup), in, out](auto& blk) {
    const Blocking2D& geom = s.geom;
    const Blocking3D& geom3 = s.geom3;
    const ColumnPass<T>* center_pass = s.has_center ? &s.center_pass : nullptr;
    const std::vector<ColumnPass<T>>& off_passes = s.off_passes;
    const int dy_min = s.dy_min;
    const int anchor = s.anchor;
    const int n_off = s.n_off;
    const int vp = s.vp;
    const Index nx = s.nx;
    const Index ny = s.ny;
    const Index nz = s.nz;
    const int warps = geom3.warps;
    const int p = geom.p;
    const int smem_elems = warps * std::max(1, n_off) * p * sim::kWarpSize;
    Smem<T> published = blk.template alloc_smem<T>(smem_elems);
    auto smem_base = [&](int warp, int slot, int i) {
      return ((warp * std::max(1, n_off) + slot) * p + i) * sim::kWarpSize;
    };

    const Index col0 = geom.lane0_col(blk.id().x);  // one warp stripe per block in x
    const Index row0 = static_cast<Index>(blk.id().y) * p + dy_min;
    const Index z_first =
        s.z_origin + static_cast<Index>(blk.id().z) * vp - geom3.rz;

    // Per-warp dz=0 partial sums kept across the barrier, flattened to
    // [warp * p + i] in a fixed inline buffer (registers, not heap).
    InlineVec<Reg<T>, kMaxBlockRegRows> center_sum(warps * p);

    // Phase 1: every warp computes all passes for its plane.
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      Index pz = z_first + w;
      pz = pz < 0 ? 0 : (pz >= nz ? nz - 1 : pz);  // replicate border in z
      const GridView2D<const T> plane = in.slice(pz);

      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(plane, col0, row0);

      for (int i = 0; i < p; ++i) {
        // dz = 0 pass stays in registers.
        Reg<T> s0 = wc.uniform(T{});
        if (center_pass != nullptr) {
          for (std::size_t ci = 0; ci < center_pass->columns.size(); ++ci) {
            if (ci > 0) s0 = wc.shfl_up(sim::kFullMask, s0, 1);
            for (const ColumnTap<T>& tap : center_pass->columns[ci]) {
              s0 = wc.mad(rc.row(i + tap.dy - dy_min), tap.coeff, s0);
            }
          }
        }
        center_sum[w * p + i] = s0;

        // dz != 0 passes go to shared memory.
        for (int op = 0; op < n_off; ++op) {
          const ColumnPass<T>& pass = off_passes[static_cast<std::size_t>(op)];
          Reg<T> sum = wc.uniform(T{});
          for (std::size_t ci = 0; ci < pass.columns.size(); ++ci) {
            if (ci > 0) sum = wc.shfl_up(sim::kFullMask, sum, 1);
            for (const ColumnTap<T>& tap : pass.columns[ci]) {
              sum = wc.mad(rc.row(i + tap.dy - dy_min), tap.coeff, sum);
            }
          }
          const Reg<int> sidx = wc.template iota<int>(smem_base(w, op, i), 1);
          wc.store_shared(published, sidx, sum);
        }
      }
    }
    blk.sync();

    // Phase 2: interior warps accumulate neighbours' contributions and store.
    for (int w = geom3.rz; w < warps - geom3.rz; ++w) {
      auto& wc = blk.warp(w);
      const Index pz = z_first + w;
      if (pz < s.z_store_lo || pz >= s.z_store_hi) continue;

      const GridView2D<T> plane{out.data() + (pz + s.z_store_offset) * ny * nx, nx, ny,
                                nx};
      store_valid_rows(wc, plane, col0 - anchor, static_cast<Index>(blk.id().y) * p, p,
                       geom.span, [&](int i) {
                         Reg<T> sum = center_sum[w * p + i];
                         for (int op = 0; op < n_off; ++op) {
                           const ColumnPass<T>& pass = off_passes[static_cast<std::size_t>(op)];
                           const int producer = w + pass.dz;  // S_dz(z + dz) lives there
                           const int deficit = anchor - pass.dx_max;
                           Reg<int> sidx =
                               wc.add(wc.lane_id(), smem_base(producer, op, i) - deficit);
                           sidx = wc.clamp(sidx, smem_base(producer, op, i),
                                           smem_base(producer, op, i) + sim::kWarpSize - 1);
                           const Reg<T> v = wc.load_shared(published, sidx);
                           sum = wc.add(sum, v);
                         }
                         return sum;
                       });
    }
  };
}

}  // namespace detail

template <typename T>
KernelStats stencil3d_ssam(const sim::ArchSpec& arch, const GridView3D<const T>& in,
                           const SystolicPlan<T>& plan, GridView3D<T> out,
                           const Stencil3DOptions& opt = {},
                           ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  detail::Stencil3dSetup<T> s = detail::stencil3d_setup(in, plan, opt);
  const sim::LaunchConfig cfg = s.cfg;
  auto body = detail::make_stencil3d_body<T>(std::move(s), in, out);
  return sim::launch(arch, cfg, body, mode, sample);
}

template <typename T>
KernelStats stencil3d_ssam(const sim::ArchSpec& arch, const GridView3D<const T>& in,
                           const StencilShape<T>& shape, GridView3D<T> out,
                           const Stencil3DOptions& opt = {},
                           ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  return stencil3d_ssam(arch, in, build_plan(shape.taps), out, opt, mode, sample);
}

}  // namespace ssam::core
