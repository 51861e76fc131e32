// The persistent iteration engine: cross-iteration tile residency, halo
// channels, and the cooperative scheduler (gpusim/persistent.hpp +
// core/iterate_persistent.hpp).
//
// Pins the contracts the engine is accountable to:
//  * outputs are bit-identical to the per-step relaunch path, for every
//    pool size and tile count (scheduling and tile-to-worker assignment
//    must never leak into results);
//  * golden FNV-1a hashes of persistent temporal stencil2d/3d outputs match
//    the relaunch path's hashes exactly;
//  * the halo channels make progress at pool size 1 with many tiles (the
//    cooperative claim-when-blocked scheduler is deadlock-free by
//    construction);
//  * the policy knob falls back to the relaunch path and reports what ran;
//  * the element-wise post hook with an aux resident field (the wave-
//    equation shape) matches the relaunch fallback bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/iterate.hpp"
#include "core/iterate_persistent.hpp"
#include "core/stencil3d.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/persistent.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::fnv1a;
using ssam::testing::PoolSizeGuard;

// ------------------------------------------------------------ halo channels

TEST(HaloChannelTest, EpochRingHandshake) {
  // Wired as the engine wires it: the two slots are the consumer's even/odd
  // halo regions, and the window is the depth 2 of that buffer pair.
  constexpr std::size_t kSlot = 256;
  std::vector<std::byte> even(kSlot), odd(kSlot);
  sim::HaloChannel ch;
  ch.configure_external(even.data(), odd.data());
  EXPECT_FALSE(ch.available(0));
  EXPECT_TRUE(ch.can_publish(0));
  EXPECT_TRUE(ch.can_publish(1));   // depth slots ahead of released = -1
  EXPECT_FALSE(ch.can_publish(2));  // would overwrite an unreleased slot
  for (std::int64_t e = 0; e < 2; ++e) {
    EXPECT_EQ(ch.publish_slot(e), (e % 2 == 0 ? even : odd).data());
    std::memset(ch.publish_slot(e), static_cast<int>('a' + e), kSlot);
    ch.publish(e);
  }
  EXPECT_TRUE(ch.available(1));
  EXPECT_FALSE(ch.can_publish(2));
  EXPECT_EQ(static_cast<char>(odd[kSlot - 1]), 'b');
  ch.release(0);
  EXPECT_TRUE(ch.can_publish(2));
  EXPECT_FALSE(ch.can_publish(3));
  EXPECT_EQ(ch.publish_slot(2), even.data());  // epoch 2 reuses epoch 0's slot
  ch.configure_external(even.data(), odd.data());  // rewiring resets the epochs
  EXPECT_FALSE(ch.available(0));
  EXPECT_FALSE(ch.can_publish(2));
}

// ---------------------------------------------- determinism and golden parity

/// Relaunch reference for `sweeps` temporal sweeps at fused depth t.
std::vector<float> relaunch_temporal2d(const Grid2D<float>& src, int t, int sweeps) {
  const core::StencilShape<float> shape = core::star2d<float>(1);
  const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
  core::StencilOptions opt;
  opt.t = t;
  Grid2D<float> a = src, b(src.width(), src.height());
  for (int s = 0; s < sweeps; ++s) {
    (void)core::stencil2d_ssam<float>(sim::tesla_v100(), a.cview(), plan, b.view(), opt);
    std::swap(a, b);
  }
  return {a.data(), a.data() + a.size()};
}

std::vector<float> persistent_temporal2d(const Grid2D<float>& src, int t, int sweeps,
                                         int tiles) {
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> a = src, b(src.width(), src.height());
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.t = t;
  opt.tiles = tiles;
  const auto stats =
      core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, shape, sweeps, opt);
  EXPECT_TRUE(stats.persistent);
  return {a.data(), a.data() + a.size()};
}

TEST(PersistentDeterminism, BitIdenticalAcrossPoolSizesAndTileCounts) {
  PoolSizeGuard guard;
  Grid2D<float> src(301, 217);
  fill_random(src, 17);
  const std::vector<float> ref = relaunch_temporal2d(src, 3, 4);
  for (int workers : {1, 4, hardware_concurrency()}) {
    ThreadPool::reset_global(workers);
    for (int tiles : {1, 2, 5, 12}) {
      const std::vector<float> got = persistent_temporal2d(src, 3, 4, tiles);
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)))
          << "pool " << workers << ", tiles " << tiles;
    }
  }
}

TEST(PersistentGolden, TemporalStencil2dHashMatchesRelaunch) {
  Grid2D<float> src(257, 193);
  fill_random(src, 29);
  const std::vector<float> relaunch = relaunch_temporal2d(src, 4, 3);
  const std::vector<float> persistent = persistent_temporal2d(src, 4, 3, 6);
  EXPECT_EQ(fnv1a(relaunch.data(), relaunch.size() * sizeof(float)),
            fnv1a(persistent.data(), persistent.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(relaunch.data(), persistent.data(),
                           relaunch.size() * sizeof(float)));
}

TEST(PersistentGolden, TemporalStencil3dHashMatchesRelaunch) {
  const core::StencilShape<float> shape = core::star3d<float>(1);
  const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
  Grid3D<float> src(49, 41, 53);
  fill_random(src, 31);

  core::Stencil3DOptions topt;
  topt.t = 2;
  Grid3D<float> ra = src, rb(src.nx(), src.ny(), src.nz());
  for (int s = 0; s < 3; ++s) {
    (void)core::stencil3d_ssam<float>(sim::tesla_v100(), ra.cview(), plan, rb.view(), topt);
    std::swap(ra, rb);
  }

  Grid3D<float> pa = src, pb(src.nx(), src.ny(), src.nz());
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.t = 2;
  opt.tiles = 4;
  const auto stats = core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), pa, pb,
                                                               shape, 3, opt);
  EXPECT_TRUE(stats.persistent);
  const std::size_t bytes = static_cast<std::size_t>(src.size()) * sizeof(float);
  EXPECT_EQ(fnv1a(ra.data(), bytes), fnv1a(pa.data(), bytes));
  EXPECT_EQ(0, std::memcmp(ra.data(), pa.data(), bytes));
}

TEST(PersistentDeterminism, PlainStencil2dMatchesIterateDriver) {
  Grid2D<float> src(193, 177);
  fill_random(src, 37);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> ra = src, rb(src.width(), src.height());
  core::iterate_stencil2d<float>(sim::tesla_v100(), ra, rb, shape, 9);

  Grid2D<float> pa = src, pb(src.width(), src.height());
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.tiles = 3;
  (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb, shape, 9, opt);
  EXPECT_EQ(0, std::memcmp(ra.data(), pa.data(),
                           static_cast<std::size_t>(src.size()) * sizeof(float)));
}

TEST(PersistentDeterminism, PlainStencil3dAcrossPoolSizes) {
  PoolSizeGuard guard;
  const core::StencilShape<float> shape = core::star3d<float>(1);
  Grid3D<float> src(57, 45, 41);
  fill_random(src, 41);
  const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
  Grid3D<float> ra = src, rb(src.nx(), src.ny(), src.nz());
  for (int s = 0; s < 5; ++s) {  // per-step relaunch reference
    (void)core::stencil3d_ssam<float>(sim::tesla_v100(), ra.cview(), plan, rb.view());
    std::swap(ra, rb);
  }
  for (int workers : {1, 4}) {
    ThreadPool::reset_global(workers);
    Grid3D<float> pa = src, pb(src.nx(), src.ny(), src.nz());
    core::PersistentOptions opt;
    opt.policy = core::IterationPolicy::kPersistent;
    opt.tiles = 3;
    (void)core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), pa, pb, shape, 5,
                                                    opt);
    EXPECT_EQ(0, std::memcmp(ra.data(), pa.data(),
                             static_cast<std::size_t>(src.size()) * sizeof(float)))
        << "pool size " << workers;
  }
}

// ------------------------------------------------- scheduler stress, policy

TEST(PersistentStress, ManyTilesPoolSizeOne) {
  // 16 tiles on a single worker over a long run: the cooperative scheduler
  // must complete (a blocked owner claims more tiles, and the zero-copy
  // channels' depth-2 buffer pair keeps the least-advanced tile always
  // advanceable) and the result must still be bit-identical.
  PoolSizeGuard guard;
  ThreadPool::reset_global(1);
  Grid2D<float> src(128, 192);
  fill_random(src, 43);
  const std::vector<float> ref = relaunch_temporal2d(src, 1, 50);
  const std::vector<float> got = persistent_temporal2d(src, 1, 50, 16);
  EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)));
}

TEST(PersistentPolicy, RelaunchFallbackAndAutoReporting) {
  Grid2D<float> src(129, 97);
  fill_random(src, 47);
  const core::StencilShape<float> shape = core::star2d<float>(1);

  Grid2D<float> ra = src, rb(src.width(), src.height());
  core::PersistentOptions relaunch;
  relaunch.policy = core::IterationPolicy::kRelaunch;
  const auto rstats = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb,
                                                                shape, 6, relaunch);
  EXPECT_FALSE(rstats.persistent);

  Grid2D<float> pa = src, pb(src.width(), src.height());
  core::PersistentOptions persistent;
  persistent.policy = core::IterationPolicy::kPersistent;
  const auto pstats = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb,
                                                                shape, 6, persistent);
  EXPECT_TRUE(pstats.persistent);
  EXPECT_EQ(0, std::memcmp(ra.data(), pa.data(),
                           static_cast<std::size_t>(src.size()) * sizeof(float)));

  // kAuto: a single sweep cannot amortize the residency load/drain.
  Grid2D<float> aa = src, ab(src.width(), src.height());
  const auto auto1 =
      core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), aa, ab, shape, 1);
  EXPECT_FALSE(auto1.persistent);
  const auto auto2 =
      core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), aa, ab, shape, 2);
  EXPECT_TRUE(auto2.persistent);
}

// ------------------------------------------------------- post hook and aux

TEST(PersistentPostHook, WaveUpdateMatchesRelaunchFallback) {
  // Two-field wave-equation update: lap -> p_next = 2p - p_prev + c2*lap,
  // with p_prev updated in place by each tile. The persistent path must match
  // the relaunch fallback (same engine, per-step launches) bit for bit.
  core::StencilShape<float> lap;
  lap.name = "2d5pt-laplacian";
  lap.dims = 2;
  lap.order = 1;
  lap.taps = {{0, 0, 0, -4.0f},
              {1, 0, 0, 1.0f},
              {-1, 0, 0, 1.0f},
              {0, 1, 0, 1.0f},
              {0, -1, 0, 1.0f}};
  const Index n = 160;
  auto post = [](GridView2D<float> next, GridView2D<const float> cur,
                 GridView2D<float> aux) {
    for (Index y = 0; y < next.height(); ++y) {
      for (Index x = 0; x < next.width(); ++x) {
        const float lapv = next.at(x, y);
        const float p = cur.at(x, y);
        next.at(x, y) = 2.0f * p - aux.at(x, y) + 0.2f * lapv;
        aux.at(x, y) = p;
      }
    }
  };

  // 1 and 2 sweeps stage the load (an in-place fused first sweep needs 3);
  // 3 and 12 fuse both ends.
  for (const int sweeps : {1, 2, 3, 12}) {
    Grid2D<float> p1(n, n, 0.0f), s1(n, n), prev1(n, n, 0.0f);
    p1.at(n / 2, n / 2) = 1.0f;
    prev1.at(n / 2, n / 2) = 0.9f;
    Grid2D<float> p2 = p1, s2 = s1, prev2 = prev1;

    core::PersistentOptions relaunch;
    relaunch.policy = core::IterationPolicy::kRelaunch;
    core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), p1, s1, lap, sweeps,
                                              relaunch, post, &prev1);
    core::PersistentOptions persistent;
    persistent.policy = core::IterationPolicy::kPersistent;
    persistent.tiles = 5;
    core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), p2, s2, lap, sweeps,
                                              persistent, post, &prev2);
    const std::size_t bytes = static_cast<std::size_t>(p1.size()) * sizeof(float);
    EXPECT_EQ(0, std::memcmp(p1.data(), p2.data(), bytes)) << "sweeps=" << sweeps;
    EXPECT_EQ(0, std::memcmp(prev1.data(), prev2.data(), bytes)) << "sweeps=" << sweeps;
  }
}

TEST(PersistentPostHook, Wave3DMatchesExplicitStepLoop) {
  // The acoustic-wave shape in 3D: the persistent engine (lap sweep + post
  // hook + in-place p_prev) must match an explicit per-step loop (full
  // sweep, then element-wise update over the whole volume) bit for bit.
  core::StencilShape<float> laplace;
  laplace.dims = 3;
  laplace.order = 1;
  laplace.taps = {{0, 0, 0, -6.0f}, {1, 0, 0, 1.0f},  {-1, 0, 0, 1.0f},
                  {0, 1, 0, 1.0f},  {0, -1, 0, 1.0f}, {0, 0, 1, 1.0f},
                  {0, 0, -1, 1.0f}};
  const auto plan = core::build_plan(laplace.taps);
  const Index n = 48;
  const int steps = 12;
  const float c2 = 0.16f;
  Grid3D<float> p(n, n, n, 0.0f), prev(n, n, n, 0.0f), lap(n, n, n);
  p.at(n / 2, n / 2, n / 2) = 1.0f;
  prev.at(n / 2, n / 2, n / 2) = 0.9f;
  Grid3D<float> rp = p, rprev = prev;

  for (int s = 0; s < steps; ++s) {
    (void)core::stencil3d_ssam<float>(sim::tesla_v100(), rp.cview(), plan, lap.view());
    for (Index i = 0; i < rp.size(); ++i) {
      const float next = 2.0f * rp.data()[i] - rprev.data()[i] + c2 * lap.data()[i];
      rprev.data()[i] = rp.data()[i];
      rp.data()[i] = next;
    }
  }

  auto wave = [c2](GridView3D<float> next, GridView3D<const float> cur,
                   GridView3D<float> aux) {
    for (Index z = 0; z < next.nz(); ++z) {
      for (Index y = 0; y < next.ny(); ++y) {
        for (Index x = 0; x < next.nx(); ++x) {
          const float l = next.at(x, y, z);
          const float pv = cur.at(x, y, z);
          next.at(x, y, z) = 2.0f * pv - aux.at(x, y, z) + c2 * l;
          aux.at(x, y, z) = pv;
        }
      }
    }
  };
  Grid3D<float> scratch(n, n, n);
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.tiles = 4;
  core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), p, scratch, laplace, steps,
                                            opt, wave, &prev);
  const std::size_t bytes = static_cast<std::size_t>(p.size()) * sizeof(float);
  EXPECT_EQ(0, std::memcmp(p.data(), rp.data(), bytes));
  EXPECT_EQ(0, std::memcmp(prev.data(), rprev.data(), bytes));
}

// ------------------------------------------------------------- workspace

TEST(PersistentWorkspace, ReusedAcrossRunsAndResizes) {
  sim::PersistentWorkspace ws;
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(161, 143);
  fill_random(src, 53);
  const std::vector<float> ref = relaunch_temporal2d(src, 1, 4);
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.tiles = 4;
  for (int run = 0; run < 3; ++run) {
    Grid2D<float> a = src, b(src.width(), src.height());
    (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, shape, 4, opt,
                                                    core::detail::NoPost{}, nullptr, &ws);
    EXPECT_EQ(0, std::memcmp(a.data(), ref.data(),
                             static_cast<std::size_t>(a.size()) * sizeof(float)))
        << "run " << run;
  }
  // A bigger problem grows the same workspace in place.
  Grid2D<float> big(257, 301);
  fill_random(big, 59);
  const std::vector<float> bigref = relaunch_temporal2d(big, 1, 4);
  Grid2D<float> a = big, b(big.width(), big.height());
  (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, shape, 4, opt,
                                                  core::detail::NoPost{}, nullptr, &ws);
  EXPECT_EQ(0, std::memcmp(a.data(), bigref.data(),
                           static_cast<std::size_t>(a.size()) * sizeof(float)));
}

}  // namespace
