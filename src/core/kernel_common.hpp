// Shared device-code helpers for SSAM kernels and baselines.
//
// Kernel bodies are mode-generic: they take `auto& blk` (either the
// functional or the timing BlockContext specialization) and call the same
// warp API; `sim::launch` instantiates whichever specialization the caller
// requests. Per-warp register state (accumulators, cached rows) lives in
// fixed-capacity InlineVecs so the functional steady state never allocates.
#pragma once

#include <cstring>
#include <span>

#include "common/grid.hpp"
#include "common/inline_vec.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/timing.hpp"

namespace ssam::core {

using sim::BlockContext;
using sim::ExecMode;
using sim::FunctionalBlockContext;
using sim::KernelStats;
using sim::Pred;
using sim::Reg;
using sim::SampleSpec;
using sim::Smem;
using sim::WarpContext;

/// Upper bound on sliding-window outputs per thread (P); the window cannot
/// exceed one warp. Bounds the inline accumulator arrays of every kernel.
inline constexpr int kMaxOutputsPerThread = 32;

/// Upper bound on warps per block (1024 threads / 32 lanes).
inline constexpr int kMaxWarpsPerBlock = 32;

/// Cooperatively copies `n` elements from global memory into a shared array,
/// block-striped exactly like Listing 1 lines 9–12 (thread t copies elements
/// t, t+B, t+2B, ...).
template <typename T, typename Block>
void cooperative_load_to_smem(Block& blk, const T* src, const Smem<T>& dst, int n) {
  if constexpr (!Block::kTimed) {
    // Functional mode: the block-striped warp copies below reduce to a plain
    // n-element copy, so issue it as one wide block transfer (the staging
    // arena is 64-byte aligned; see SmemAllocator). Timing mode must issue
    // the real per-warp op sequence for the scoreboard and counters.
    std::memcpy(dst.data, src, static_cast<std::size_t>(n) * sizeof(T));
    blk.sync();
    return;
  }
  const int threads = blk.warp_count() * sim::kWarpSize;
  for (int w = 0; w < blk.warp_count(); ++w) {
    auto& wc = blk.warp(w);
    for (int base = w * sim::kWarpSize; base < n; base += threads) {
      const Reg<Index> gidx = wc.template iota<Index>(base, 1);
      const Reg<int> sidx = wc.template iota<int>(base, 1);
      if (base + sim::kWarpSize <= n) {
        const Reg<T> v = wc.load_global(src, gidx);
        wc.store_shared(dst, sidx, v);
      } else {
        Pred active = wc.cmp_lt(wc.template iota<int>(base, 1), n);
        const Reg<T> v = wc.load_global(src, gidx, &active);
        wc.store_shared(dst, sidx, v, &active);
      }
    }
  }
  blk.sync();
}

/// Stores the P valid output rows of a systolic sweep: lane l >= first_lane
/// holds the output for column x0 + l of rows oy0 .. oy0+p-1 (clipped to the
/// domain). In functional mode, a warp whose stored lanes are fully
/// in-domain writes each row as one contiguous block copy; border warps and
/// timing mode issue the kernels' documented op sequence (index affine,
/// halo/width predicates, predicated coalesced store) unchanged.
template <typename T, typename Warp, typename RowFn>
void store_valid_rows(Warp& wc, GridView2D<T> out, Index x0, Index oy0, int p,
                      int first_lane, RowFn&& row) {
  const Index width = out.width();
  const Index height = out.height();
  if constexpr (!Warp::kTimed) {
    if (x0 + first_lane >= 0 && x0 + sim::kWarpSize <= width) {
      for (int i = 0; i < p; ++i) {
        const Index oy = oy0 + i;
        if (oy >= height) break;
        std::memcpy(out.data() + oy * out.pitch() + x0 + first_lane,
                    row(i).v.lane.data() + first_lane,
                    static_cast<std::size_t>(sim::kWarpSize - first_lane) * sizeof(T));
      }
      return;
    }
  }
  const Reg<Index> out_x = wc.affine(wc.template iota<Index>(0, 1), 1, x0);
  Pred ok = wc.pred_and(wc.cmp_ge(wc.lane_id(), first_lane), wc.cmp_lt(out_x, width));
  for (int i = 0; i < p; ++i) {
    const Index oy = oy0 + i;
    if (oy >= height) break;
    decltype(auto) v = row(i);  // evaluate first: kernels compute the row's ops
                                // (if any) before the output index affine
    const Reg<Index> oidx = wc.affine(out_x, 1, oy * out.pitch());
    wc.store_global(out.data(), oidx, v, &ok);
  }
}

/// Result bundle benches use: sampled statistics plus the runtime estimate.
struct RunResult {
  KernelStats stats;
  sim::RuntimeEstimate estimate;

  [[nodiscard]] double ms() const { return estimate.total_ms; }
};

}  // namespace ssam::core
