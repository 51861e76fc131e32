// The virtual multi-device sharding layer (gpusim/device.hpp +
// core/shard.hpp + the sharded persistent path of core/iterate_persistent.hpp).
//
// The one invariant everything here defends: sharding is a *scheduling*
// knob, never a results knob. For every shard count, policy, tile count,
// pool size, stencil shape, and temporal depth, a sharded run must be
// bit-identical to the single-device run — which the randomized
// differential suite checks over hundreds of seeded cases (the failing
// seed is printed so any case reproduces with SSAM_SHARD_SEED).
//
// Also pinned:
//  * peer halo channels under out-of-order production/consumption pacing
//    (property stress; runs under ASan/TSan in CI);
//  * shard count > tile count degrades to fewer shards, never deadlocks or
//    corrupts results; pool size 1 everywhere stays deadlock-free;
//  * IterationPolicy x ShardPolicy: every combination agrees bit for bit,
//    auto-selection is exercised and its decision logged deterministically;
//  * per-device counters observe seam traffic;
//  * two threads sharding runs across one shared group at once neither
//    corrupt nor deadlock each other.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/grid.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/iterate.hpp"
#include "core/iterate_persistent.hpp"
#include "core/shard.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::bits_equal;
using ssam::testing::env_positive_int;
using ssam::testing::fnv1a;
using ssam::testing::PoolSizeGuard;

/// Local default: >= 200 seeded cases across the 2D and 3D suites. CI legs
/// pin a subset with SSAM_SHARD_CASES (sanitizers run ~10x slower).
int total_cases() { return env_positive_int("SSAM_SHARD_CASES", 200); }
std::uint64_t base_seed() {
  return static_cast<std::uint64_t>(env_positive_int("SSAM_SHARD_SEED", 0x5eed5));
}

core::StencilShape<float> random_star2d(SplitMix64& rng, int radius) {
  core::StencilShape<float> s = core::star2d<float>(radius);
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.5, 0.5));
  return s;
}

core::StencilShape<float> random_star3d(SplitMix64& rng) {
  core::StencilShape<float> s = core::star3d<float>(1);
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.3, 0.3));
  return s;
}

// ------------------------------------------------ randomized differential

TEST(ShardDifferential, Randomized2D) {
  const int cases = std::max(1, 2 * total_cases() / 3);
  const std::uint64_t seed0 = base_seed();
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("2D case seed=" + std::to_string(seed) +
                 " (reproduce: SSAM_SHARD_CASES=1 SSAM_SHARD_SEED=" +
                 std::to_string(seed) + ")");
    SplitMix64 rng(seed);
    const Index w = 33 + static_cast<Index>(rng.next_below(180));
    const Index h = 40 + static_cast<Index>(rng.next_below(190));
    const int radius = rng.next_below(4) == 0 ? 2 : 1;
    const core::StencilShape<float> shape = random_star2d(rng, radius);
    core::PersistentOptions opt;
    opt.t = radius == 1 ? 1 + static_cast<int>(rng.next_below(3)) : 1;
    opt.tiles = static_cast<int>(rng.next_below(6));  // 0 = auto
    const int sweeps = static_cast<int>(rng.next_below(6));
    // From the seed, not the case index, so the printed one-case command
    // replays the same shard count; {1,2,3,4} are all covered.
    const int devices = 1 + static_cast<int>(seed % 4);
    const bool persistent_policy = rng.next_below(2) == 0;

    Grid2D<float> src(w, h);
    fill_random(src, seed ^ 0x9e3779b9u);

    // Single-device relaunch reference.
    Grid2D<float> ra = src, rb(w, h);
    core::PersistentOptions ref = opt;
    ref.policy = core::IterationPolicy::kRelaunch;
    (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape,
                                                    sweeps, ref);

    core::PersistentOptions sh = opt;
    sh.policy = persistent_policy ? core::IterationPolicy::kPersistent
                                  : core::IterationPolicy::kRelaunch;
    sh.shard = core::ShardPolicy::sharded(devices);
    Grid2D<float> sa = src, sb(w, h);
    const auto stats = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), sa,
                                                                 sb, shape, sweeps, sh);
    EXPECT_LE(stats.devices, devices);
    EXPECT_GE(stats.devices, 1);
    ASSERT_TRUE(bits_equal(ra.data(), sa.data(), static_cast<std::size_t>(src.size())))
        << "policy=" << (persistent_policy ? "persistent" : "relaunch")
        << " devices=" << devices << " tiles=" << opt.tiles << " t=" << opt.t
        << " sweeps=" << sweeps << " grid=" << w << "x" << h;
    const std::size_t bytes = static_cast<std::size_t>(src.size()) * sizeof(float);
    EXPECT_EQ(fnv1a(ra.data(), bytes), fnv1a(sa.data(), bytes));
  }
}

TEST(ShardDifferential, Randomized3D) {
  const int cases = std::max(1, total_cases() / 3);
  // Own seed range; case c replays as the first case of base seed base + c.
  const std::uint64_t base = base_seed();
  const std::uint64_t seed0 = base + 0x3d000000u;
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("3D case seed=" + std::to_string(seed) +
                 " (reproduce: SSAM_SHARD_CASES=1 SSAM_SHARD_SEED=" +
                 std::to_string(base + static_cast<std::uint64_t>(c)) + ")");
    SplitMix64 rng(seed);
    const Index nx = 24 + static_cast<Index>(rng.next_below(24));
    const Index ny = 24 + static_cast<Index>(rng.next_below(24));
    const Index nz = 24 + static_cast<Index>(rng.next_below(32));
    const core::StencilShape<float> shape = random_star3d(rng);
    core::PersistentOptions opt;
    opt.t = 1 + static_cast<int>(rng.next_below(2));
    opt.tiles = static_cast<int>(rng.next_below(5));
    const int sweeps = static_cast<int>(rng.next_below(5));
    const int devices = 1 + static_cast<int>(seed % 4);
    const bool persistent_policy = rng.next_below(2) == 0;

    Grid3D<float> src(nx, ny, nz);
    fill_random(src, seed ^ 0x51ed2701u);

    Grid3D<float> ra = src, rb(nx, ny, nz);
    core::PersistentOptions ref = opt;
    ref.policy = core::IterationPolicy::kRelaunch;
    (void)core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), ra, rb, shape,
                                                    sweeps, ref);

    core::PersistentOptions sh = opt;
    sh.policy = persistent_policy ? core::IterationPolicy::kPersistent
                                  : core::IterationPolicy::kRelaunch;
    sh.shard = core::ShardPolicy::sharded(devices);
    Grid3D<float> sa = src, sb(nx, ny, nz);
    const auto stats = core::iterate_stencil3d_persistent<float>(sim::tesla_v100(), sa,
                                                                 sb, shape, sweeps, sh);
    EXPECT_LE(stats.devices, devices);
    ASSERT_TRUE(bits_equal(ra.data(), sa.data(), static_cast<std::size_t>(src.size())))
        << "policy=" << (persistent_policy ? "persistent" : "relaunch")
        << " devices=" << devices << " tiles=" << opt.tiles << " t=" << opt.t
        << " sweeps=" << sweeps << " grid=" << nx << "x" << ny << "x" << nz;
  }
}

// ------------------------------------------- policy x shard interaction

TEST(ShardPolicyInteraction, AllCombinationsBitIdentical2D) {
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(193, 167);
  fill_random(src, 71);
  const int sweeps = 6;

  Grid2D<float> ra = src, rb(src.width(), src.height());
  core::iterate_stencil2d<float>(sim::tesla_v100(), ra, rb, shape, sweeps);

  for (const auto policy :
       {core::IterationPolicy::kRelaunch, core::IterationPolicy::kPersistent}) {
    for (int devices : {1, 2, 3, 4}) {
      core::PersistentOptions opt;
      opt.policy = policy;
      opt.shard = core::ShardPolicy::sharded(devices);
      Grid2D<float> pa = src, pb(src.width(), src.height());
      const auto stats = core::iterate_stencil2d_persistent<float>(
          sim::tesla_v100(), pa, pb, shape, sweeps, opt);
      EXPECT_EQ(stats.persistent, policy == core::IterationPolicy::kPersistent);
      // Sharding places persistent tiles only; relaunch runs use one pool.
      EXPECT_EQ(stats.sharded, policy == core::IterationPolicy::kPersistent);
      ASSERT_TRUE(
          bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(src.size())))
          << "policy=" << static_cast<int>(policy) << " devices=" << devices;
    }
  }
}

TEST(ShardPolicyInteraction, AutoPolicySelectsAndLogsDeterministically) {
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(129, 97);
  fill_random(src, 79);

  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  auto run_auto = [&](int sweeps) {
    Grid2D<float> a = src, b(src.width(), src.height());
    core::PersistentOptions opt;
    opt.shard = core::ShardPolicy::sharded(2);
    opt.tiles = 4;
    ::testing::internal::CaptureStderr();
    const auto stats = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b,
                                                                 shape, sweeps, opt);
    return std::pair(stats, ::testing::internal::GetCapturedStderr());
  };

  // One sweep cannot amortize residency: auto falls back to relaunch,
  // which runs on one pool whatever the shard policy.
  const auto [s1, log1] = run_auto(1);
  EXPECT_FALSE(s1.persistent);
  EXPECT_FALSE(s1.sharded);
  EXPECT_NE(log1.find("iterate_stencil2d: policy=auto -> relaunch, shard=single"),
            std::string::npos)
      << log1;

  const auto [s4, log4] = run_auto(4);
  EXPECT_TRUE(s4.persistent);
  EXPECT_NE(log4.find("iterate_stencil2d: policy=auto -> persistent, shard=sharded("),
            std::string::npos)
      << log4;
  EXPECT_NE(log4.find("tiles=" + std::to_string(s4.tiles)), std::string::npos);

  // Deterministic: the same run logs the same line, byte for byte.
  const auto [s4b, log4b] = run_auto(4);
  EXPECT_EQ(log4, log4b);
  EXPECT_EQ(s4.tiles, s4b.tiles);
  EXPECT_EQ(s4.devices, s4b.devices);
  set_log_level(before);
}

// ------------------------------------------------ property / stress tests

TEST(PeerChannelProperty, OutOfOrderPacingPreservesEpochPayloads) {
  // Producer and consumer run with adversarial random pacing: the producer
  // bursts as far ahead as backpressure allows, the consumer drains in
  // random-sized gulps after random yields. Every epoch's payload must be
  // intact at consumption time, and the depth-2 window must never be
  // violated. The slots are two external 256-byte buffers, as the engine
  // wires them. (Seeded: failures reproduce.)
  constexpr std::size_t kSlot = 256;
  constexpr std::int64_t kEpochs = 2000;
  std::vector<unsigned char> even(kSlot), odd(kSlot);
  sim::HaloChannel ch;
  ch.configure_external(reinterpret_cast<std::byte*>(even.data()),
                        reinterpret_cast<std::byte*>(odd.data()));
  std::atomic<bool> fail{false};

  std::thread producer([&] {
    SplitMix64 rng(101);
    for (std::int64_t e = 0; e < kEpochs; ++e) {
      while (!ch.can_publish(e)) std::this_thread::yield();
      std::memset(ch.publish_slot(e), static_cast<int>(e % 251), kSlot);
      if (rng.next_below(7) == 0) std::this_thread::yield();
      ch.publish(e);
    }
  });
  std::thread consumer([&] {
    SplitMix64 rng(202);
    for (std::int64_t e = 0; e < kEpochs; ++e) {
      while (!ch.available(e)) std::this_thread::yield();
      if (rng.next_below(5) == 0) std::this_thread::yield();
      const unsigned char* p = (e % 2 == 0 ? even : odd).data();
      const auto expect = static_cast<unsigned char>(e % 251);
      for (std::size_t i = 0; i < kSlot; ++i) {
        if (p[i] != expect) {
          fail.store(true);
          break;
        }
      }
      ch.release(e);
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(fail.load()) << "payload corrupted";
}

TEST(PeerChannelProperty, ShardCountExceedsTileCount) {
  // A domain too small for the requested shard count must clamp to fewer
  // devices (never produce empty shards or deadlock) and stay bit-exact.
  PoolSizeGuard guard;
  ThreadPool::reset_global(1);
  const core::StencilShape<float> shape = core::star2d<float>(2);  // fat halo
  Grid2D<float> src(65, 24);  // few bands available
  fill_random(src, 83);
  Grid2D<float> ra = src, rb(src.width(), src.height());
  core::PersistentOptions ref;
  ref.policy = core::IterationPolicy::kRelaunch;
  (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape, 4,
                                                  ref);
  for (int devices : {4, 8, 16}) {
    core::PersistentOptions opt;
    opt.policy = core::IterationPolicy::kPersistent;
    opt.shard = core::ShardPolicy::sharded(devices);
    Grid2D<float> pa = src, pb(src.width(), src.height());
    const auto stats = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa,
                                                                 pb, shape, 4, opt);
    EXPECT_LE(stats.devices, devices);
    EXPECT_GE(stats.devices, 1);
    ASSERT_TRUE(bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(src.size())))
        << "requested devices=" << devices << " used=" << stats.devices;
  }
}

TEST(PeerChannelProperty, PoolSizeOneEverywhereIsDeadlockFree) {
  // Worst case for the cooperative scheduler: the global pool has one
  // worker AND every device slice has one worker, with many tiles per
  // shard and a long run. Completion alone proves deadlock-freedom; the
  // parity check proves the wavefront never skewed.
  PoolSizeGuard guard;
  ThreadPool::reset_global(1);
  std::vector<sim::DeviceOptions> slices(3);
  for (auto& s : slices) s.threads = 1;
  sim::DeviceGroup group(std::move(slices));

  Grid2D<float> src(96, 144);
  fill_random(src, 89);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> ra = src, rb(src.width(), src.height());
  core::iterate_stencil2d<float>(sim::tesla_v100(), ra, rb, shape, 40);

  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.shard = core::ShardPolicy::sharded(3, &group);
  opt.tiles = 12;  // 4 tiles per 1-worker device
  Grid2D<float> pa = src, pb(src.width(), src.height());
  const auto stats = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb,
                                                               shape, 40, opt);
  EXPECT_EQ(stats.devices, 3);
  ASSERT_TRUE(bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(src.size())));
}

TEST(ShardedRuns, ConcurrentRunsOnSharedGroupMatchSingle) {
  // Two threads shard runs across the same process-wide group at once,
  // each with its own tile counts. Every run carves its buffers and
  // channels from its own workspace, so neither can see the other's state,
  // and multi-device runs are admitted one at a time, so neither can hold
  // the device workers the other waits on. Each output must match the
  // single-pool run bit for bit.
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(96, 160);
  fill_random(src, 103);
  const int sweeps = 16;
  Grid2D<float> ra = src, rb(src.width(), src.height());
  core::PersistentOptions single;
  single.policy = core::IterationPolicy::kPersistent;
  (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape, sweeps,
                                                  single);

  const std::size_t bytes = static_cast<std::size_t>(src.size()) * sizeof(float);
  std::atomic<int> mismatches{0};
  std::atomic<int> unsharded{0};
  auto worker = [&](int tiles0) {
    for (int run = 0; run < 50; ++run) {
      core::PersistentOptions opt;
      opt.policy = core::IterationPolicy::kPersistent;
      opt.shard = core::ShardPolicy::sharded(2);
      opt.tiles = tiles0 + run % 4;
      Grid2D<float> a = src, b(src.width(), src.height());
      const auto stats = core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b,
                                                                   shape, sweeps, opt);
      if (stats.devices != 2) unsharded.fetch_add(1);
      if (std::memcmp(a.data(), ra.data(), bytes) != 0) mismatches.fetch_add(1);
    }
  };
  std::thread t1(worker, 2);
  std::thread t2(worker, 6);
  t1.join();
  t2.join();
  EXPECT_EQ(unsharded.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------- devices and counters

TEST(DeviceTest, CountersObserveSeamTraffic) {
  std::vector<sim::DeviceOptions> slices(2);
  for (auto& s : slices) s.threads = 1;
  sim::DeviceGroup group(std::move(slices));

  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> a(128, 128), b(128, 128);
  fill_random(a, 91);
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.shard = core::ShardPolicy::sharded(2, &group);
  opt.tiles = 4;
  const int sweeps = 6;
  const auto stats =
      core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), a, b, shape, sweeps, opt);
  ASSERT_EQ(stats.devices, 2);

  std::uint64_t total_sweeps = 0;
  std::uint64_t seam_epochs = 0;
  for (int d = 0; d < group.size(); ++d) {
    auto& c = group.device(d).counters();
    total_sweeps += c.sweeps.load();
    seam_epochs += c.seam_epochs_out.load();
    EXPECT_GE(c.halo_bytes_out.load(), c.seam_bytes_out.load());
  }
  EXPECT_EQ(total_sweeps, static_cast<std::uint64_t>(stats.tiles) * sweeps);
  // Each side of the one seam publishes epochs 0..sweeps-2 plus the staged
  // initial boundary (epoch 0 of the load phase when no fused first sweep).
  EXPECT_GT(seam_epochs, 0u);
}

TEST(DeviceTest, SharedGroupsAreCachedAndReusable) {
  sim::DeviceGroup& g2 = sim::DeviceGroup::shared(2);
  EXPECT_EQ(&g2, &sim::DeviceGroup::shared(2));
  EXPECT_EQ(g2.size(), 2);

  // Back-to-back sharded runs on the cached group stay bit-exact.
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(161, 143);
  fill_random(src, 97);
  Grid2D<float> ra = src, rb(src.width(), src.height());
  core::iterate_stencil2d<float>(sim::tesla_v100(), ra, rb, shape, 4);
  for (int run = 0; run < 3; ++run) {
    core::PersistentOptions opt;
    opt.policy = core::IterationPolicy::kPersistent;
    opt.shard = core::ShardPolicy::sharded(2);
    Grid2D<float> pa = src, pb(src.width(), src.height());
    (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), pa, pb, shape, 4,
                                                    opt);
    ASSERT_TRUE(bits_equal(ra.data(), pa.data(), static_cast<std::size_t>(src.size())))
        << "run " << run;
  }
}

TEST(DeviceTest, PostHookAndAuxFieldShardAcrossDevices) {
  // The two-field wave update (post hook + in-place aux) under sharding:
  // both policies, 3 devices, must match the single relaunch path.
  core::StencilShape<float> lap;
  lap.dims = 2;
  lap.order = 1;
  lap.taps = {{0, 0, 0, -4.0f},
              {1, 0, 0, 1.0f},
              {-1, 0, 0, 1.0f},
              {0, 1, 0, 1.0f},
              {0, -1, 0, 1.0f}};
  const Index n = 144;
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
  Grid2D<float> p0(n, n, 0.0f), prev0(n, n, 0.0f);
  p0.at(n / 2, n / 2) = 1.0f;
  prev0.at(n / 2, n / 2) = 0.9f;

  Grid2D<float> rp = p0, rs(n, n), rprev = prev0;
  core::PersistentOptions ref;
  ref.policy = core::IterationPolicy::kRelaunch;
  core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), rp, rs, lap, 10, ref, post,
                                            &rprev);
  for (const auto policy :
       {core::IterationPolicy::kRelaunch, core::IterationPolicy::kPersistent}) {
    Grid2D<float> p = p0, s(n, n), prev = prev0;
    core::PersistentOptions opt;
    opt.policy = policy;
    opt.shard = core::ShardPolicy::sharded(3);
    opt.tiles = 6;
    core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), p, s, lap, 10, opt, post,
                                              &prev);
    ASSERT_TRUE(bits_equal(rp.data(), p.data(), static_cast<std::size_t>(rp.size())))
        << "policy=" << static_cast<int>(policy);
    ASSERT_TRUE(
        bits_equal(rprev.data(), prev.data(), static_cast<std::size_t>(rprev.size())))
        << "policy=" << static_cast<int>(policy);
  }
}

}  // namespace
