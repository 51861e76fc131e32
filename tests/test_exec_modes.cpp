// Compile-time execution-mode specialization: functional/timing parity,
// golden timing statistics, and the zero-allocation functional steady state.
//
// These tests pin down the contract of the mode-templated simulator:
//  * functional outputs are bit-identical to timing-mode outputs (same Vec
//    lane primitives run in both specializations);
//  * timing-mode cycles and counters match recorded golden values, so
//    functional-path optimizations can never silently disturb the model;
//  * the functional steady state performs no heap allocation per block
//    (verified through a counting operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "core/conv2d.hpp"
#include "core/gemm.hpp"
#include "core/scan.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"

// ---------------------------------------------------------------------------
// Counting operator new: the allocation hook the zero-allocation test uses.
// ---------------------------------------------------------------------------

namespace {
std::atomic<long long> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

// Kept out of line: inlined into a `new` site, gcc 12 flags the free() of a
// pointer from operator new as -Wmismatched-new-delete, though the
// replacement operator new above takes it from malloc().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace ssam;

// The functional warp context must carry zero timing residue: no scoreboard,
// no counters, no memory-system pointer — just the arch pointer and lane id.
static_assert(sizeof(sim::FunctionalWarpContext) < sizeof(sim::WarpContext));
static_assert(sizeof(sim::FunctionalWarpContext) <= 2 * sizeof(void*));

/// Timing sample that covers every block of the small parity grids, so the
/// timing run produces a complete output image to compare against.
sim::SampleSpec full_sample() { return sim::SampleSpec{1 << 20, 1}; }

template <typename T>
void expect_bit_identical(const T* a, const T* b, Index n) {
  for (Index i = 0; i < n; ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// --- functional vs timing parity -------------------------------------------

TEST(ModeParity, Conv2dOutputsBitIdentical) {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(300, 64);
  fill_random(in, 11);
  std::vector<float> weights(5 * 5);
  {
    SplitMix64 rng(7);
    for (auto& w : weights) w = static_cast<float>(rng.next_in(-1.0, 1.0));
  }
  Grid2D<float> out_f(300, 64), out_t(300, 64);
  (void)core::conv2d_ssam<float>(arch, in.cview(), weights, 5, 5, out_f.view(), {},
                                 core::ExecMode::kFunctional);
  const auto stats =
      core::conv2d_ssam<float>(arch, in.cview(), weights, 5, 5, out_t.view(), {},
                               core::ExecMode::kTiming, full_sample());
  ASSERT_EQ(stats.blocks_timed, stats.blocks_total) << "grid must be fully sampled";
  expect_bit_identical(out_f.data(), out_t.data(), out_f.size());
}

TEST(ModeParity, Stencil2dOutputsBitIdentical) {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(300, 64);
  fill_random(in, 13);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> out_f(300, 64), out_t(300, 64);
  (void)core::stencil2d_ssam<float>(arch, in.cview(), shape, out_f.view(), {},
                                    core::ExecMode::kFunctional);
  const auto stats = core::stencil2d_ssam<float>(arch, in.cview(), shape, out_t.view(), {},
                                                 core::ExecMode::kTiming, full_sample());
  ASSERT_EQ(stats.blocks_timed, stats.blocks_total);
  expect_bit_identical(out_f.data(), out_t.data(), out_f.size());
}

TEST(ModeParity, TemporalStencilOutputsBitIdentical) {
  const auto& arch = sim::tesla_p100();
  Grid2D<float> in(256, 48);
  fill_random(in, 17);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  core::StencilOptions opt;
  opt.t = 2;
  Grid2D<float> out_f(256, 48), out_t(256, 48);
  (void)core::stencil2d_ssam<float>(arch, in.cview(), shape, out_f.view(), opt,
                                    core::ExecMode::kFunctional);
  const auto stats = core::stencil2d_ssam<float>(arch, in.cview(), shape, out_t.view(), opt,
                                                 core::ExecMode::kTiming, full_sample());
  ASSERT_EQ(stats.blocks_timed, stats.blocks_total);
  expect_bit_identical(out_f.data(), out_t.data(), out_f.size());
}

TEST(ModeParity, ScanOutputsBitIdentical) {
  const auto& arch = sim::tesla_v100();
  std::vector<float> in(256 * 50);
  {
    SplitMix64 rng(23);
    for (auto& v : in) v = static_cast<float>(rng.next_in(-1.0, 1.0));
  }
  std::vector<float> out_f(in.size()), out_t(in.size());
  (void)core::scan_inclusive<float>(arch, in, out_f, core::ExecMode::kFunctional);
  (void)core::scan_inclusive<float>(arch, in, out_t, core::ExecMode::kTiming, full_sample());
  expect_bit_identical(out_f.data(), out_t.data(), static_cast<Index>(out_f.size()));
}

TEST(ModeParity, GemmOutputsBitIdentical) {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> a(32, 64), b(64, 32);
  fill_random(a, 29);
  fill_random(b, 31);
  Grid2D<float> c_f(64, 64), c_t(64, 64);
  (void)core::gemm_ssam<float>(arch, a.cview(), b.cview(), c_f.view(), {},
                               core::ExecMode::kFunctional);
  const auto stats = core::gemm_ssam<float>(arch, a.cview(), b.cview(), c_t.view(), {},
                                            core::ExecMode::kTiming, full_sample());
  ASSERT_EQ(stats.blocks_timed, stats.blocks_total);
  expect_bit_identical(c_f.data(), c_t.data(), c_f.size());
}

// --- golden timing statistics ----------------------------------------------
//
// Recorded from the timing model on the cases below; the timing path must
// not drift when the functional path is optimized. Op-count counters are
// address-independent and exactly reproducible.

struct GoldenCounters {
  double cycles_per_block;
  std::uint64_t fp_ops;
  std::uint64_t shfl_ops;
  std::uint64_t smem_loads;
  std::uint64_t gmem_load_insts;
  std::uint64_t gmem_store_insts;
  std::uint64_t barriers;
};

void expect_matches_golden(const sim::KernelStats& stats, const GoldenCounters& g) {
  // Cycles depend (slightly) on host buffer addresses through the modeled
  // cache-set mapping, so they carry a tight band instead of bit equality;
  // op counters are address-independent and must match exactly.
  EXPECT_NEAR(stats.cycles_per_block, g.cycles_per_block, 0.02 * g.cycles_per_block);
  EXPECT_EQ(stats.totals.fp_ops, g.fp_ops);
  EXPECT_EQ(stats.totals.shfl_ops, g.shfl_ops);
  EXPECT_EQ(stats.totals.smem_loads, g.smem_loads);
  EXPECT_EQ(stats.totals.gmem_load_insts, g.gmem_load_insts);
  EXPECT_EQ(stats.totals.gmem_store_insts, g.gmem_store_insts);
  EXPECT_EQ(stats.totals.barriers, g.barriers);
}

TEST(GoldenTiming, Conv2d5x5OnV100) {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(300, 64);
  fill_random(in, 11);
  std::vector<float> weights(5 * 5, 0.04f);
  Grid2D<float> out(300, 64);
  const auto stats = core::conv2d_ssam<float>(arch, in.cview(), weights, 5, 5, out.view(),
                                              {}, core::ExecMode::kTiming, full_sample());
  // GOLDEN(conv2d): regenerate by printing stats if the *model* changes.
  const GoldenCounters golden{3411.0625, 17600, 2816, 17600, 1456, 704, 48};
  expect_matches_golden(stats, golden);
}

TEST(GoldenTiming, Stencil2dStar1OnV100) {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(300, 64);
  fill_random(in, 13);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> out(300, 64);
  const auto stats = core::stencil2d_ssam<float>(arch, in.cview(), shape, out.view(), {},
                                                 core::ExecMode::kTiming, full_sample());
  // GOLDEN(stencil2d): regenerate by printing stats if the *model* changes.
  const GoldenCounters golden{652.54166666666663, 3200, 1280, 0, 960, 640, 0};
  expect_matches_golden(stats, golden);
}

// The t = 2 and 3D goldens below were recorded from the separate temporal
// and single-step kernels that the merged stencil2d/stencil3d kernels
// replaced; they pin that the merge issues the same instruction streams.
TEST(GoldenTiming, Stencil2dStar1T2OnV100) {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(300, 64);
  fill_random(in, 13);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> out(300, 64);
  core::StencilOptions opt;
  opt.t = 2;
  const auto stats = core::stencil2d_ssam<float>(arch, in.cview(), shape, out.view(), opt,
                                                 core::ExecMode::kTiming, full_sample());
  // GOLDEN(stencil2d t=2): regenerate by printing stats if the *model* changes.
  const GoldenCounters golden{921.125, 8800, 3520, 0, 1408, 704, 0};
  expect_matches_golden(stats, golden);
}

/// A 64x20x24 star1 input and an output grid whose first elements sit on
/// 64 KB boundaries. A timed launch feeds host addresses to the modeled
/// caches (ROADMAP item 2), and the 3D star1 cycles are bimodal in the
/// buffers' line alignment and L1 set mapping (about 632 or 652 per block,
/// against the 2% band), so the 3D goldens pin the placement.
struct AlignedGrids3D {
  static constexpr Index kNx = 64, kNy = 20, kNz = 24, kElems = kNx * kNy * kNz;
  static constexpr std::uintptr_t kAlign = 64 * 1024;
  std::vector<float> storage = std::vector<float>(2 * kElems + 2 * kAlign / sizeof(float));
  float* in = aligned(storage.data());
  float* out = aligned(in + kElems);

  AlignedGrids3D() {
    Grid3D<float> src(kNx, kNy, kNz);
    fill_random(src, 19);
    std::copy(src.data(), src.data() + kElems, in);
  }
  static float* aligned(float* p) {
    const auto a = (reinterpret_cast<std::uintptr_t>(p) + kAlign - 1) & ~(kAlign - 1);
    return reinterpret_cast<float*>(a);
  }
  [[nodiscard]] GridView3D<const float> cview() const { return {in, kNx, kNy, kNz}; }
  [[nodiscard]] GridView3D<float> view() const { return {out, kNx, kNy, kNz}; }
};

TEST(GoldenTiming, Stencil3dStar1OnV100) {
  const auto& arch = sim::tesla_v100();
  const AlignedGrids3D g;
  const core::StencilShape<float> shape = core::star3d<float>(1);
  const auto stats = core::stencil3d_ssam<float>(arch, g.cview(), shape, g.view(), {},
                                                 core::ExecMode::kTiming, full_sample());
  // GOLDEN(stencil3d): regenerate by printing stats if the *model* changes.
  const GoldenCounters golden{652.5, 16320, 3840, 2880, 3840, 1440, 120};
  expect_matches_golden(stats, golden);
}

TEST(GoldenTiming, Stencil3dStar1T2OnV100) {
  const auto& arch = sim::tesla_v100();
  const AlignedGrids3D g;
  const core::StencilShape<float> shape = core::star3d<float>(1);
  core::Stencil3DOptions opt;
  opt.t = 2;
  const auto stats = core::stencil3d_ssam<float>(arch, g.cview(), shape, g.view(), opt,
                                                 core::ExecMode::kTiming, full_sample());
  // GOLDEN(stencil3d t=2): regenerate by printing stats if the *model* changes.
  const GoldenCounters golden{1186.5666666666666, 66960, 15840, 11520, 8640, 1440, 540};
  expect_matches_golden(stats, golden);
}

TEST(GoldenTiming, RepeatedTimingRunsAreIdentical) {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(300, 64);
  fill_random(in, 11);
  std::vector<float> weights(5 * 5, 0.04f);
  Grid2D<float> out(300, 64);
  auto run = [&] {
    return core::conv2d_ssam<float>(arch, in.cview(), weights, 5, 5, out.view(), {},
                                    core::ExecMode::kTiming, full_sample());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.cycles_per_block, b.cycles_per_block);
  EXPECT_DOUBLE_EQ(a.issue_slots_per_block, b.issue_slots_per_block);
  EXPECT_EQ(a.totals.dram_read_bytes, b.totals.dram_read_bytes);
}

// --- zero allocation in the functional steady state ------------------------

long long allocations_during_conv2d(const sim::ArchSpec& arch, Grid2D<float>& in,
                                    Grid2D<float>& out,
                                    const std::vector<float>& weights) {
  const long long before = g_alloc_count.load(std::memory_order_relaxed);
  (void)core::conv2d_ssam<float>(arch, in.cview(), weights, 5, 5, out.view(), {},
                                 core::ExecMode::kFunctional);
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(FunctionalAllocations, SteadyStateIsAllocationFree) {
  const auto& arch = sim::tesla_v100();
  const std::vector<float> weights(5 * 5, 0.04f);
  Grid2D<float> small_in(300, 16 * 4), small_out(300, 16 * 4);    // 16 block rows
  Grid2D<float> large_in(300, 128 * 4), large_out(300, 128 * 4);  // 128 block rows
  fill_random(small_in, 41);
  fill_random(large_in, 43);

  // Warm up: the first launch spawns the worker pool and constructs the
  // per-worker pooled contexts.
  (void)allocations_during_conv2d(arch, small_in, small_out, weights);

  const long long small = allocations_during_conv2d(arch, small_in, small_out, weights);
  const long long large = allocations_during_conv2d(arch, large_in, large_out, weights);
  // Per-launch allocation must not scale with the block count: the blocks
  // execute in pooled per-worker contexts. What remains is the fixed
  // dispatch overhead of the pool's parallel loop (one loop state plus up
  // to one helper task per pool worker), which is bounded by the pool size
  // — 8x the blocks may not add more than that.
  const long long per_launch_dispatch_bound =
      4 * ssam::ThreadPool::global().size() + 4;
  EXPECT_LE(large - small, per_launch_dispatch_bound);
}

}  // namespace
