// SSAM 3D stencil kernel (paper Section 4.9), with in-register temporal
// blocking as its `t` knob.
//
// A block of WZ warps covers WZ consecutive z-planes of a 3D sub-grid with
// overlapped blocking in z: the outer t*rz warps on each side are halo
// warps. Every warp caches its plane's rows in registers, runs one systolic
// column sweep per z-offset group of the plan, keeps the dz = 0 partial
// sums in registers, and publishes the dz != 0 partial sums to shared
// memory — the only inter-warp communication (shuffles stay intra-warp, as
// the paper requires). After __syncthreads, interior warps combine their own
// dz = 0 sums with neighbours' published sums and store.
//
// With t fused steps the combine of every step but the last produces the
// next level's register rows instead of storing, and the next step sweeps
// those rows. Validity shrinks every step: rz planes per side (z), `span`
// lanes (x), dy-span rows (y) — the 3D generalization of the 2D ghost-zone
// scheme (core/stencil2d.hpp).
#pragma once

#include <utility>
#include <vector>

#include "core/stencil2d.hpp"

namespace ssam::core {

struct Stencil3DOptions {
  int p = 2;      ///< sliding-window outputs per thread (rows)
  int warps = 8;  ///< planes per block; must exceed 2*t*rz
  int t = 1;      ///< fused time steps per sweep (temporal blocking)
};

/// Bound on the flat per-block register state (warps x level rows) the 3D
/// kernel keeps across barriers without heap allocation.
inline constexpr int kMaxBlockRegRows = 320;

/// Registers per thread: the cached rows, the live level(s) (one at t = 1,
/// two for fused steps) and the per-pass partial sums.
[[nodiscard]] inline int stencil3d_ssam_regs(int rows_halo, int p, int passes, int t) {
  if (t == 1) return (p + rows_halo) + p * passes + 12;
  return 2 * (p + t * rows_halo) + p * passes + 12;
}

namespace detail {

/// Validated geometry, launch config, and *owned* pass schedule of one 3D
/// sweep. Owning copies of the passes (rather than pointers into the
/// caller's plan) make the body self-contained.
template <typename T>
struct Stencil3dSetup {
  Blocking2D geom;
  sim::LaunchConfig cfg;
  int t = 1;
  int rz = 0;       ///< z radius of one step
  int dy_span = 0;  ///< rows one fused step consumes
  int vp = 0;       ///< valid output planes per block
  int dy_min = 0;
  int anchor = 0;
  Index nx = 0;
  Index ny = 0;
  Index nz = 0;
  /// Output z-window of the sweep: planes [z_lo, z_hi) are stored, and the
  /// block grid starts at z_lo. Full-grid entry points cover [0, nz); the
  /// persistent iteration engine (core/iterate_persistent.hpp) moves the
  /// window to a tile's band planes in its residence buffer, shrinking
  /// `cfg.grid.z` to match.
  Index z_lo = 0;
  Index z_hi = 0;
  /// Added to the store plane only — lets the engine's fused first/last
  /// sweeps read one array (global grid or residence buffer) and store into
  /// the other without an intermediate copy.
  Index z_store_offset = 0;
  ColumnPass<T> center_pass;              ///< dz = 0 taps (no columns: none)
  std::vector<ColumnPass<T>> off_passes;  ///< dz != 0 passes, by value
};

template <typename T>
[[nodiscard]] Stencil3dSetup<T> stencil3d_setup(const GridView3D<const T>& in,
                                                const SystolicPlan<T>& plan,
                                                const Stencil3DOptions& opt) {
  const int t = opt.t;
  const int rz = plan.rz();
  const int span = plan.span();
  const int dy_span = plan.rows_halo();
  SSAM_REQUIRE(t >= 1, "need at least one step");
  SSAM_REQUIRE(opt.warps > 2 * t * rz, "z block too shallow for the z halo of t steps");
  SSAM_REQUIRE(t == 1 || sim::kWarpSize - t * span >= 8, "too many fused steps for one warp");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  SSAM_REQUIRE(opt.p + t * dy_span <= kMaxRegCacheRows,
               "fused steps exceed the register cache capacity");
  SSAM_REQUIRE(opt.warps * (opt.p + (t - 1) * dy_span) <= kMaxBlockRegRows,
               "per-block register level state exceeds the inline bound");
  Stencil3dSetup<T> s;
  s.t = t;
  s.rz = rz;
  s.dy_span = dy_span;
  s.nx = in.nx();
  s.ny = in.ny();
  s.nz = in.nz();

  // In-plane geometry, anchored at the global dx extremes.
  s.geom.span = t * span;
  s.geom.dx_min = t * plan.dx_min;
  s.geom.rows_halo = t * dy_span;
  s.geom.p = opt.p;
  s.geom.block_threads = opt.warps * sim::kWarpSize;

  // Off-plane passes (dz != 0) publish their partial sums to smem.
  for (const auto& pass : plan.passes) {
    if (pass.dz == 0) {
      s.center_pass = pass;
    } else {
      s.off_passes.push_back(pass);
    }
  }

  const Blocking3D geom3{s.geom, t * rz, opt.warps};
  s.vp = geom3.valid_planes();
  s.z_hi = s.nz;
  s.cfg.grid = geom3.grid(s.nx, s.ny, s.nz);
  s.cfg.block_threads = geom3.block_threads();
  s.cfg.regs_per_thread =
      stencil3d_ssam_regs(dy_span, opt.p, static_cast<int>(plan.passes.size()), t);

  s.dy_min = plan.dy_min;
  s.anchor = plan.anchor_dx;
  return s;
}

/// Mode-generic 3D stencil body. The setup (including the owned passes) is
/// captured by value, so the body outlives the caller's plan.
template <typename T>
[[nodiscard]] auto make_stencil3d_body(Stencil3dSetup<T> setup, GridView3D<const T> in,
                                       GridView3D<T> out) {
  return [s = std::move(setup), in, out](auto& blk) {
    const Blocking2D& geom = s.geom;
    const std::vector<ColumnPass<T>>& off_passes = s.off_passes;
    const int t = s.t;
    const int rz = s.rz;
    const int dy_span = s.dy_span;
    const int dy_min = s.dy_min;
    const int anchor = s.anchor;
    const int n_off = static_cast<int>(off_passes.size());
    const Index nx = s.nx;
    const Index ny = s.ny;
    const Index nz = s.nz;
    const int warps = blk.warp_count();
    const int p = geom.p;
    // Widest level kept across a barrier: level 1, C0 - dy_span rows.
    const int rows1 = p + (t - 1) * dy_span;
    const int slots = std::max(1, n_off);
    Smem<T> published = blk.template alloc_smem<T>(warps * slots * rows1 * sim::kWarpSize);
    auto smem_base = [&](int warp, int slot, int row) {
      return ((warp * slots + slot) * rows1 + row) * sim::kWarpSize;
    };

    const Index col0 = geom.lane0_col(blk.id().x);  // one warp stripe per block in x
    const Index row0 =
        static_cast<Index>(blk.id().y) * p + static_cast<Index>(t) * dy_min;
    const Index z_first =
        s.z_lo + static_cast<Index>(blk.id().z) * s.vp - static_cast<Index>(t) * rz;

    // Per-warp register state across barriers, flattened to
    // [warp * rows1 + row] in fixed inline buffers (registers, not heap):
    // the dz = 0 partial sums and the current level's rows.
    InlineVec<Reg<T>, kMaxBlockRegRows> center_sums(warps * rows1);
    InlineVec<Reg<T>, kMaxBlockRegRows> level(warps * rows1);

    // Sweeps `rows` rows of warp w's current level `src`: the dz = 0 sums
    // stay in registers, the dz != 0 sums go to shared memory.
    auto produce = [&](auto& wc, int w, int rows, const Reg<T>* src) {
      for (int r = 0; r < rows; ++r) {
        center_sums[w * rows1 + r] = column_sweep(wc, s.center_pass, src, r - dy_min);
        for (int slot = 0; slot < n_off; ++slot) {
          const Reg<T> sum =
              column_sweep(wc, off_passes[static_cast<std::size_t>(slot)], src, r - dy_min);
          wc.store_shared(published, wc.template iota<int>(smem_base(w, slot, r), 1), sum);
        }
      }
    };
    // Warp w's own dz = 0 sum of row r plus its z neighbours' published sums.
    auto combine = [&](auto& wc, int w, int r) {
      Reg<T> sum = center_sums[w * rows1 + r];
      for (int slot = 0; slot < n_off; ++slot) {
        const ColumnPass<T>& pass = off_passes[static_cast<std::size_t>(slot)];
        const int producer = w + pass.dz;  // S_dz(z + dz) lives there
        const int deficit = anchor - pass.dx_max;
        Reg<int> sidx = wc.add(wc.lane_id(), smem_base(producer, slot, r) - deficit);
        sidx = wc.clamp(sidx, smem_base(producer, slot, r),
                        smem_base(producer, slot, r) + sim::kWarpSize - 1);
        sum = wc.add(sum, wc.load_shared(published, sidx));
      }
      return sum;
    };

    // Step 0: every warp loads its plane and sweeps the register cache.
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      Index pz = z_first + w;
      pz = pz < 0 ? 0 : (pz >= nz ? nz - 1 : pz);  // replicate border in z
      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(in.slice(pz), col0, row0);
      produce(wc, w, rows1, rc.data());
    }
    blk.sync();

    // Fused steps: warps still valid at level `step` combine into registers
    // and sweep again; validity shrinks by rz planes per side each step.
    int rows = rows1;
    for (int step = 1; step < t; ++step) {
      for (int w = step * rz; w < warps - step * rz; ++w) {
        auto& wc = blk.warp(w);
        for (int r = 0; r < rows; ++r) level[w * rows1 + r] = combine(wc, w, r);
      }
      blk.sync();  // the published buffer is reused by this step
      rows -= dy_span;
      for (int w = step * rz; w < warps - step * rz; ++w) {
        produce(blk.warp(w), w, rows, &level[w * rows1]);
      }
      blk.sync();
    }

    // Last combine, fused into the store: interior warps, P rows each,
    // lanes >= t*span.
    for (int w = t * rz; w < warps - t * rz; ++w) {
      auto& wc = blk.warp(w);
      const Index pz = z_first + w;
      if (pz < s.z_lo || pz >= s.z_hi) continue;
      const GridView2D<T> plane{out.data() + (pz + s.z_store_offset) * ny * nx, nx, ny,
                                nx};
      store_valid_rows(wc, plane, col0 - static_cast<Index>(t) * anchor,
                       static_cast<Index>(blk.id().y) * p, p, geom.span,
                       [&](int i) { return combine(wc, w, i); });
    }
  };
}

}  // namespace detail

/// Runs one 3D stencil sweep of `opt.t` fused time steps over `in` into
/// `out` using the plan's shift schedule.
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
