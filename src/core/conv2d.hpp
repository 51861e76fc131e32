// SSAM 2D convolution (paper Section 4.1–4.7, Listing 1).
//
// One warp computes a (WarpSize - M + 1) x P output tile:
//   1. filter weights -> shared memory (cooperative, broadcast-read later);
//   2. a WarpSize x C register-cache tile is loaded with coalesced reads
//      (C = P + N - 1, Equation 3);
//   3. for each sliding-window step i and each filter column m, every lane
//      computes an N-tap partial sum with MADs against the broadcast filter
//      column, shuffling the partial sum one lane to the right between
//      columns (Figure 2);
//   4. lanes M-1..31 hold finished outputs and store them coalesced.
// Borders replicate (NPP FilterBorder semantics).
#pragma once

#include <span>
#include <vector>

#include "common/grid.hpp"
#include "core/kernel_common.hpp"
#include "rcache/blocking.hpp"
#include "rcache/register_cache.hpp"

namespace ssam::core {

/// Tunables of the SSAM convolution kernel. Paper defaults: P=4, B=128.
struct ConvOptions {
  int p = 4;              ///< sliding-window outputs per thread
  int block_threads = 128;
};

/// Registers/thread the kernel needs (drives simulated occupancy): the
/// register cache (C), the P accumulators, and bookkeeping.
[[nodiscard]] inline int conv2d_ssam_regs(int filter_n, int p) {
  return (p + filter_n - 1) + p + 12;
}

namespace detail {

/// Validated geometry + launch config of one convolution launch.
struct Conv2dSetup {
  Blocking2D geom;
  sim::LaunchConfig cfg;
  int m = 0;
  int n = 0;
  int cx = 0;
  int cy = 0;
  Index width = 0;
};

template <typename T>
[[nodiscard]] Conv2dSetup conv2d_setup(const GridView2D<const T>& in,
                                       std::size_t weight_count, int filter_m,
                                       int filter_n, const ConvOptions& opt) {
  SSAM_REQUIRE(filter_m >= 1 && filter_n >= 1, "filter extents must be positive");
  SSAM_REQUIRE(filter_m <= sim::kWarpSize, "filter wider than a warp");
  SSAM_REQUIRE(opt.p >= 1 && opt.p <= kMaxOutputsPerThread,
               "sliding window length exceeds one warp");
  SSAM_REQUIRE(static_cast<Index>(weight_count) ==
                   static_cast<Index>(filter_m) * filter_n,
               "weight count mismatch");
  Conv2dSetup s;
  s.m = filter_m;
  s.n = filter_n;
  s.cx = (filter_m - 1) / 2;
  s.cy = (filter_n - 1) / 2;
  s.width = in.width();
  s.geom.span = s.m - 1;
  s.geom.dx_min = -s.cx;
  s.geom.rows_halo = s.n - 1;
  s.geom.p = opt.p;
  s.geom.block_threads = opt.block_threads;
  s.cfg.grid = s.geom.grid(s.width, in.height());
  s.cfg.block_threads = opt.block_threads;
  s.cfg.regs_per_thread = conv2d_ssam_regs(s.n, opt.p);
  return s;
}

/// Mode-generic conv2d body. Every capture is by value (views, geometry, the
/// raw weight pointer).
template <typename T>
[[nodiscard]] auto make_conv2d_body(const Conv2dSetup& s, GridView2D<const T> in,
                                    const T* wgt, GridView2D<T> out) {
  const Blocking2D geom = s.geom;
  const int m = s.m;
  const int n = s.n;
  const int cx = s.cx;
  const int cy = s.cy;
  const Index width = s.width;
  return [=](auto& blk) {
    // Step 1 (Listing 1 lines 9-12): weights to shared memory.
    Smem<T> smem = blk.template alloc_smem<T>(m * n);
    cooperative_load_to_smem(blk, wgt, smem, m * n);

    for (int w = 0; w < blk.warp_count(); ++w) {
      auto& wc = blk.warp(w);
      const long long warp_linear =
          static_cast<long long>(blk.id().x) * geom.warps_per_block() + w;
      const Index col0 = geom.lane0_col(warp_linear);
      if (col0 - geom.dx_min >= width) continue;  // fully out of range warp
      const Index row0 = geom.top_row(blk.id().y, cy);

      // Step 2 (lines 13-14): register cache fill.
      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(in, col0, row0);

      // Step 3 (lines 16-29): sliding window of P partial-sum sweeps.
      InlineVec<Reg<T>, kMaxOutputsPerThread> result(geom.p);
      for (int i = 0; i < geom.p; ++i) {
        Reg<T> sum = wc.uniform(T{});
        for (int fm = 0; fm < m; ++fm) {
          if (fm > 0) sum = wc.shfl_up(sim::kFullMask, sum, 1);
          for (int fn = 0; fn < n; ++fn) {
            sum = wc.mad_broadcast(rc.row(i + fn), smem, fn * m + fm, sum);
          }
        }
        result[i] = sum;
      }

      // Step 4 (lines 30-31): lanes >= M-1 store valid outputs.
      store_valid_rows(wc, out, col0 - (m - 1) + cx,
                       static_cast<Index>(blk.id().y) * geom.p, geom.p, m - 1,
                       [&](int i) -> const Reg<T>& { return result[i]; });
    }
  };
}

}  // namespace detail

/// Launches the SSAM convolution of `in` (W x H) with an M x N filter
/// stored row-major (w[n*M + m]). Functional mode fills `out` completely;
/// timing mode executes a sampled subset of blocks (outputs of unsampled
/// blocks are left untouched) and returns extrapolated statistics.
template <typename T>
KernelStats conv2d_ssam(const sim::ArchSpec& arch, const GridView2D<const T>& in,
                        std::span<const T> weights, int filter_m, int filter_n,
                        GridView2D<T> out, const ConvOptions& opt = {},
                        ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  const detail::Conv2dSetup s =
      detail::conv2d_setup(in, weights.size(), filter_m, filter_n, opt);
  auto body = detail::make_conv2d_body<T>(s, in, weights.data(), out);
  return sim::launch(arch, s.cfg, body, mode, sample);
}

}  // namespace ssam::core
