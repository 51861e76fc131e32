// GEMM on SSAM — the compute-bound extension the paper sketches in
// Section 3.3 ("SSAM, in general, is not limited to memory-bound kernels and
// could be extended to compute bound kernels, such as GEMM").
//
// Mapping: a warp owns a 32-wide column strip of C and P rows at a time
// (register-cached accumulators = X/Y). The dependency graph D is the
// operand *broadcast* chain: a coalesced load pulls 32 consecutive A values
// into the warp once per 32 k-steps, and each step broadcasts one of them to
// all lanes with a shuffle — the same register-to-register systolic motion,
// with ctrl() selecting the source PE. B rows stream coalesced per k.
#pragma once

#include "core/kernel_common.hpp"

namespace ssam::core {

struct GemmOptions {
  int p = 4;  ///< rows of C per warp iteration (register accumulators)
};

[[nodiscard]] inline int gemm_ssam_regs(int p) { return p + 18; }

namespace detail {

struct GemmSetup {
  sim::LaunchConfig cfg;
  Index m = 0;
  Index k = 0;
  Index n = 0;
  int warps = 0;
  int p = 0;
};

template <typename T>
[[nodiscard]] GemmSetup gemm_setup(const GridView2D<const T>& a,
                                   const GridView2D<const T>& b,
                                   const GridView2D<T>& c, const GemmOptions& opt) {
  GemmSetup s;
  s.m = a.height();
  s.k = a.width();
  s.n = b.width();
  SSAM_REQUIRE(b.height() == s.k && c.width() == s.n && c.height() == s.m,
               "gemm extent mismatch");
  constexpr int kBlockThreads = 128;
  s.warps = kBlockThreads / sim::kWarpSize;
  s.p = opt.p;
  SSAM_REQUIRE(s.p >= 1 && s.p <= kMaxOutputsPerThread,
               "accumulator rows per warp exceed the inline bound");
  s.cfg.grid =
      Dim3{static_cast<int>(ceil_div(s.n, sim::kWarpSize)),
           static_cast<int>(ceil_div(s.m, static_cast<long long>(s.warps) * s.p)), 1};
  s.cfg.block_threads = kBlockThreads;
  s.cfg.regs_per_thread = gemm_ssam_regs(s.p);
  return s;
}

}  // namespace detail

/// C(MxN) = A(MxK) * B(KxN), row-major, all dense.
template <typename T>
KernelStats gemm_ssam(const sim::ArchSpec& arch, const GridView2D<const T>& a,
                      const GridView2D<const T>& b, GridView2D<T> c,
                      const GemmOptions& opt = {}, ExecMode mode = ExecMode::kFunctional,
                      SampleSpec sample = {}) {
  const detail::GemmSetup setup = detail::gemm_setup(a, b, c, opt);
  const Index m = setup.m;
  const Index k = setup.k;
  const Index n = setup.n;
  const int warps = setup.warps;
  const int p = setup.p;
  // Mode-generic body; views captured by value.
  auto body = [=](auto& blk) {
    for (int w = 0; w < warps; ++w) {
      auto& wc = blk.warp(w);
      const Index j0 = static_cast<Index>(blk.id().x) * sim::kWarpSize;  // C columns
      const Index i0 = (static_cast<Index>(blk.id().y) * warps + w) * p;  // C rows
      if (j0 >= n || i0 >= m) continue;
      Pred col_ok = wc.cmp_lt(wc.template iota<Index>(j0, 1), n);

      InlineVec<Reg<T>, kMaxOutputsPerThread> acc(p);
      for (int r = 0; r < p; ++r) acc[r] = wc.uniform(T{});

      for (Index kk = 0; kk < k; kk += sim::kWarpSize) {
        const int steps = static_cast<int>(std::min<Index>(sim::kWarpSize, k - kk));
        // One coalesced A load per row of the register tile per 32 k-steps.
        InlineVec<Reg<T>, kMaxOutputsPerThread> a_vec(p);
        Pred k_ok = wc.cmp_lt(wc.template iota<Index>(kk, 1), k);
        for (int r = 0; r < p; ++r) {
          const Index row = std::min<Index>(i0 + r, m - 1);
          a_vec[r] =
              wc.load_global(a.data(), wc.template iota<Index>(row * a.pitch() + kk, 1), &k_ok);
        }
        for (int s = 0; s < steps; ++s) {
          // B(kk+s, j0 + lane): coalesced stream of one B row segment.
          const Reg<T> b_row = wc.load_global(
              b.data(), wc.template iota<Index>((kk + s) * b.pitch() + j0, 1), &col_ok);
          for (int r = 0; r < p; ++r) {
            // Systolic broadcast: lane s's cached A value to all lanes.
            const Reg<T> a_bc = wc.shfl_idx(sim::kFullMask, a_vec[r], s);
            acc[r] = wc.mad(b_row, a_bc, acc[r]);
          }
        }
      }
      for (int r = 0; r < p; ++r) {
        const Index row = i0 + r;
        if (row >= m) break;
        wc.store_global(c.data(), wc.template iota<Index>(row * c.pitch() + j0, 1),
                        acc[r], &col_ok);
      }
    }
  };
  return sim::launch(arch, setup.cfg, body, mode, sample);
}

/// Scalar reference for tests.
template <typename T>
void gemm_reference(const GridView2D<const T>& a, const GridView2D<const T>& b,
                    GridView2D<T> c) {
  for (Index i = 0; i < c.height(); ++i) {
    for (Index j = 0; j < c.width(); ++j) {
      T acc{};
      for (Index kk = 0; kk < a.width(); ++kk) acc += a.at(kk, i) * b.at(j, kk);
      c.at(j, i) = acc;
    }
  }
}

}  // namespace ssam::core
