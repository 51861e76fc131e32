// Scan operator in SSAM (paper Section 3.6, Figure 1e).
//
// The Kogge–Stone dependency graph is the "D" of the scan's J-tuple: at
// stage d the partial sum shifts d lanes downstream and ctrl() gates the
// accumulation to lanes >= d (Equation 1's ctrl returning 0 for low lanes).
// The device-wide scan composes warp scans hierarchically: warp scan ->
// block scan via shared memory -> recursive scan of block sums -> offset add.
#pragma once

#include <span>
#include <vector>

#include "core/kernel_common.hpp"

namespace ssam::core {

/// Warp-level inclusive Kogge–Stone scan (Figure 1e, 5 stages for 32 lanes).
template <typename T, typename Warp>
[[nodiscard]] Reg<T> warp_inclusive_scan(Warp& wc, Reg<T> v) {
  for (int d = 1; d < sim::kWarpSize; d <<= 1) {
    const Reg<T> shifted = wc.shfl_up(sim::kFullMask, v, d);
    const Pred gate = wc.cmp_ge(wc.lane_id(), d);  // ctrl() of Equation 1
    v = wc.select(gate, wc.add(v, shifted), v);
  }
  return v;
}

namespace detail {

inline constexpr int kScanBlockThreads = 256;

[[nodiscard]] inline sim::LaunchConfig scan_config(long long blocks) {
  sim::LaunchConfig cfg;
  cfg.grid = Dim3{static_cast<int>(blocks), 1, 1};
  cfg.block_threads = kScanBlockThreads;
  cfg.regs_per_thread = 24;
  return cfg;
}

}  // namespace detail

/// Device-wide inclusive scan. Returns the stats of every launched kernel
/// (top-level pass, recursive block-sum scans, offset-add passes).
template <typename T>
std::vector<KernelStats> scan_inclusive(const sim::ArchSpec& arch, std::span<const T> in,
                                        std::span<T> out,
                                        ExecMode mode = ExecMode::kFunctional,
                                        SampleSpec sample = {}) {
  SSAM_REQUIRE(in.size() == out.size(), "scan extent mismatch");
  SSAM_REQUIRE(!in.empty(), "empty scan");
  const Index n = static_cast<Index>(in.size());
  constexpr int kBlockThreads = detail::kScanBlockThreads;
  const int warps = kBlockThreads / sim::kWarpSize;
  const long long blocks = ceil_div(n, kBlockThreads);

  std::vector<T> block_sums(static_cast<std::size_t>(blocks));
  std::vector<KernelStats> all;

  const sim::LaunchConfig cfg = detail::scan_config(blocks);
  const T* src = in.data();
  T* dst = out.data();
  T* sums = block_sums.data();
  // Top-level pass: per-block inclusive scan of `src` into `dst`, block
  // totals into `sums`.
  auto body = [=](auto& blk) {
    Smem<T> warp_totals = blk.template alloc_smem<T>(warps);
    InlineVec<Reg<T>, kMaxWarpsPerBlock> scanned(warps);
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      const Index base = static_cast<Index>(blk.id().x) * kBlockThreads +
                         static_cast<Index>(w) * sim::kWarpSize;
      const Reg<Index> idx = wc.template iota<Index>(base, 1);
      Pred active = wc.cmp_lt(idx, n);
      Reg<T> v = wc.load_global(src, idx, &active);
      v = warp_inclusive_scan(wc, v);
      scanned[w] = v;
      // Publish the warp total (lane 31).
      const Reg<T> total = wc.shfl_idx(sim::kFullMask, v, sim::kWarpSize - 1);
      Pred lane0 = wc.cmp_lt(wc.lane_id(), 1);
      wc.store_shared(warp_totals, wc.uniform(w), total, &lane0);
    }
    blk.sync();
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      // Accumulate preceding warps' totals (small serial loop, w <= 8).
      Reg<T> offset = wc.uniform(T{});
      for (int pw = 0; pw < w; ++pw) {
        const Reg<T> t = wc.load_shared_broadcast(warp_totals, pw);
        offset = wc.add(offset, t);
      }
      Reg<T> v = wc.add(scanned[w], offset);
      const Index base = static_cast<Index>(blk.id().x) * kBlockThreads +
                         static_cast<Index>(w) * sim::kWarpSize;
      const Reg<Index> idx = wc.template iota<Index>(base, 1);
      Pred active = wc.cmp_lt(idx, n);
      wc.store_global(dst, idx, v, &active);
      if (w == warps - 1) {
        // Lane 31 of the last warp writes the block total.
        Pred last = wc.cmp_ge(wc.lane_id(), sim::kWarpSize - 1);
        wc.store_global(sums, wc.template uniform<Index>(blk.id().x),
                        wc.shfl_idx(sim::kFullMask, v, sim::kWarpSize - 1), &last);
      }
    }
  };
  all.push_back(sim::launch(arch, cfg, body, mode, sample));

  if (blocks > 1) {
    // Recursively scan the block sums, then add exclusive offsets.
    std::vector<T> scanned_sums(block_sums.size());
    auto sub = scan_inclusive<T>(arch, {block_sums.data(), block_sums.size()},
                                 {scanned_sums.data(), scanned_sums.size()}, mode, sample);
    all.insert(all.end(), sub.begin(), sub.end());

    // Offset-add pass: block b adds the scanned sum of blocks [0, b).
    const T* offs = scanned_sums.data();
    auto add_body = [=](auto& blk) {
      if (blk.id().x == 0) return;  // block 0 needs no offset
      for (int w = 0; w < blk.warp_count(); ++w) {
        auto& wc = blk.warp(w);
        const Reg<T> off = wc.load_global(offs, wc.template uniform<Index>(blk.id().x - 1));
        const Index base = static_cast<Index>(blk.id().x) * kBlockThreads +
                           static_cast<Index>(w) * sim::kWarpSize;
        const Reg<Index> idx = wc.template iota<Index>(base, 1);
        Pred active = wc.cmp_lt(idx, n);
        Reg<T> v = wc.load_global(dst, idx, &active);
        v = wc.add(v, off);
        wc.store_global(dst, idx, v, &active);
      }
    };
    all.push_back(sim::launch(arch, cfg, add_body, mode, sample));
  }
  return all;
}

}  // namespace ssam::core
