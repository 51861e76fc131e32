// Chain-compiler suite (core/chain.hpp): the fused persistent chain run
// must be BIT-IDENTICAL to the staged per-stage reference for every chain
// the builder accepts — that is the subsystem's one results invariant, and
// this file defends it the way PR 5 defended sharding: with a seeded
// randomized differential suite (>= 200 cases by default; the failing seed
// is printed so any case reproduces with SSAM_CHAIN_SEED).
//
// Randomized axes: chain depth {2..8}, stage mix (plain stencils of random
// shape/coefficients, temporally blocked stages, dual-stencil stages with
// an element-wise combine, element-wise map epilogues), grid sizes, tile
// counts, pool sizes {1,2,4}, and ShardPolicy {single, sharded(2),
// sharded(0) — the env-resolved device count CI's chain matrix varies}.
// One more seeded input pins the equivalence the band engine is built on:
// a chain of k identical linear stages equals k sweeps of the iteration
// engine, under both policies and at pool sizes {1, 4}.
//
// Directed tests pin the edges: depth-1 degradation to the staged path,
// temporal/plain mixes, dual-vs-separate bitwise equivalence (the
// zero-coefficient padding must be a pure no-op), ChainGraph lowering
// (diamond -> dual stage, map fusion, identity lift, rejection of
// non-linearizable DAGs), the kChain job kind through run_job and the
// server, and warm-workspace reuse across staged and fused runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chain.hpp"
#include "core/iterate_persistent.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::bits_equal;
using ssam::testing::env_positive_int;
using ssam::testing::PoolSizeGuard;

/// >= 200 seeded cases locally; sanitizer CI legs pin SSAM_CHAIN_CASES=40.
int total_cases() { return env_positive_int("SSAM_CHAIN_CASES", 200); }
std::uint64_t base_seed() {
  return static_cast<std::uint64_t>(env_positive_int("SSAM_CHAIN_SEED", 0xc4a15));
}

core::StencilShape<float> random_shape(SplitMix64& rng) {
  core::StencilShape<float> s;
  switch (rng.next_below(3)) {
    case 0:
      s = core::star2d<float>(1);
      break;
    case 1:
      s = core::star2d<float>(2);
      break;
    default:
      s = core::box2d<float>(3, 3);
      break;
  }
  for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.5, 0.5));
  return s;
}

// Fixed pools of pure element-wise functions (the suite checks bit-parity
// between two paths running the SAME function objects, so any deterministic
// float function qualifies).
std::function<float(float, float)> random_combine(SplitMix64& rng) {
  switch (rng.next_below(3)) {
    case 0:
      return [](float a, float b) { return a + b; };
    case 1:
      return [](float a, float b) { return a - 0.25f * b; };
    default:
      return [](float a, float b) { return std::abs(a) + std::abs(b); };
  }
}

std::function<float(float)> random_map(SplitMix64& rng) {
  switch (rng.next_below(3)) {
    case 0:
      return [](float v) { return v < 0.0f ? 0.0f : v; };  // relu threshold
    case 1:
      return [](float v) { return 1.5f * v; };
    default:
      return [](float v) { return std::abs(v); };
  }
}

core::ChainStage<float> random_stage(SplitMix64& rng) {
  core::ChainStage<float> st;
  const std::uint64_t pick = rng.next_below(8);
  if (pick < 4) {
    st = core::ChainStage<float>::stencil(random_shape(rng));
  } else if (pick < 6) {
    // Temporal: t in {2,3} on radius 1 keeps 32 - t*span >= 8 trivially.
    core::StencilShape<float> s = core::star2d<float>(1);
    for (auto& tap : s.taps) tap.coeff = static_cast<float>(rng.next_in(-0.4, 0.4));
    st = core::ChainStage<float>::stencil(std::move(s),
                                          2 + static_cast<int>(rng.next_below(2)));
  } else {
    st = core::ChainStage<float>::dual_stencil(random_shape(rng), random_shape(rng),
                                               random_combine(rng));
  }
  if (rng.next_below(3) == 0) st = st.with_map(random_map(rng));
  return st;
}

// ------------------------------------------------ randomized differential

TEST(ChainDifferential, RandomizedFusedMatchesStaged) {
  PoolSizeGuard guard;
  const int cases = total_cases();
  const std::uint64_t seed0 = base_seed();
  int cur_pool = 0;
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("chain case seed=" + std::to_string(seed) +
                 " (reproduce: SSAM_CHAIN_CASES=1 SSAM_CHAIN_SEED=" +
                 std::to_string(seed) + ")");
    SplitMix64 rng(seed);
    const Index w = 33 + static_cast<Index>(rng.next_below(160));
    const Index h = 40 + static_cast<Index>(rng.next_below(170));
    const int depth = 2 + static_cast<int>(rng.next_below(7));  // {2..8}
    std::vector<core::ChainStage<float>> stages;
    stages.reserve(static_cast<std::size_t>(depth));
    for (int s = 0; s < depth; ++s) stages.push_back(random_stage(rng));

    // Pool size and shard mode come from the seed, not the case index, so
    // the printed one-case command replays the same combination.
    const int pool = seed % 3 == 0 ? 1 : (seed % 3 == 1 ? 2 : 4);
    if (pool != cur_pool) {
      ThreadPool::reset_global(pool);
      cur_pool = pool;
    }

    Grid2D<float> src(w, h);
    fill_random(src, seed ^ 0x9e3779b9u);

    Grid2D<float> staged(w, h);
    core::PersistentOptions ref;
    ref.policy = core::IterationPolicy::kRelaunch;
    const auto rs = core::run_chain2d<float>(sim::tesla_v100(), src, staged, stages, ref);
    EXPECT_FALSE(rs.persistent);

    core::PersistentOptions opt;
    opt.policy = core::IterationPolicy::kPersistent;
    opt.tiles = static_cast<int>(rng.next_below(6));  // 0 = auto
    const bool shard = seed % 2 == 1;
    // Alternate sharded cases between a pinned device count and the
    // environment-resolved one (sharded(0) reads SSAM_DEVICES — the CI
    // chain matrix axis), so the same seeds cover every matrix cell.
    if (shard) {
      opt.shard = (seed % 4 == 1) ? core::ShardPolicy::sharded(2)
                                  : core::ShardPolicy::sharded(0);
    }
    Grid2D<float> fused(w, h);
    const auto fs = core::run_chain2d<float>(sim::tesla_v100(), src, fused, stages, opt);
    EXPECT_TRUE(fs.persistent);
    EXPECT_EQ(fs.sweeps, depth);
    ASSERT_TRUE(bits_equal(staged.data(), fused.data(),
                           static_cast<std::size_t>(src.size())))
        << "depth=" << depth << " pool=" << pool << " tiles=" << opt.tiles
        << " shard="
        << (!shard ? "single" : (seed % 4 == 1 ? "sharded(2)" : "sharded(env)"))
        << " grid=" << w << "x" << h;
  }

  // Iteration is a chain of identical stages: k copies of one linear stage
  // at temporal depth t must equal k sweeps of the iteration engine at that
  // t, under both policies and at pool sizes {1, 4}. Own seed range, so the
  // cases above keep their streams; case c replays as the first case of
  // base seed seed0 + c.
  const int iter_cases = std::max(1, cases / 10);
  for (int c = 0; c < iter_cases; ++c) {
    const std::uint64_t seed = seed0 + 0x17e4a000u + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("identical-stage case seed=" + std::to_string(seed) +
                 " (reproduce: SSAM_CHAIN_CASES=1 SSAM_CHAIN_SEED=" +
                 std::to_string(seed0 + static_cast<std::uint64_t>(c)) + ")");
    SplitMix64 rng(seed);
    const Index w = 33 + static_cast<Index>(rng.next_below(160));
    const Index h = 40 + static_cast<Index>(rng.next_below(170));
    const int k = 2 + static_cast<int>(rng.next_below(7));  // {2..8}
    const int t = 1 + static_cast<int>(rng.next_below(3));  // {1..3}
    core::StencilShape<float> shape = core::star2d<float>(1);
    if (t == 1) {
      shape = random_shape(rng);
    } else {
      for (auto& tap : shape.taps) tap.coeff = static_cast<float>(rng.next_in(-0.4, 0.4));
    }
    const int tiles = static_cast<int>(rng.next_below(6));  // 0 = auto
    const std::vector<core::ChainStage<float>> stages(
        static_cast<std::size_t>(k), core::ChainStage<float>::stencil(shape, t));
    Grid2D<float> src(w, h);
    fill_random(src, seed ^ 0x9e3779b9u);

    for (const int pool : {1, 4}) {
      ThreadPool::reset_global(pool);
      for (const auto policy :
           {core::IterationPolicy::kRelaunch, core::IterationPolicy::kPersistent}) {
        core::PersistentOptions copt;
        copt.policy = policy;
        copt.tiles = tiles;
        Grid2D<float> chained(w, h);
        (void)core::run_chain2d<float>(sim::tesla_v100(), src, chained, stages, copt);

        core::PersistentOptions iopt = copt;
        iopt.t = t;
        Grid2D<float> ia = src, ib(w, h);
        (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ia, ib, shape, k,
                                                        iopt);
        ASSERT_TRUE(bits_equal(ia.data(), chained.data(),
                               static_cast<std::size_t>(src.size())))
            << "k=" << k << " t=" << t << " pool=" << pool
            << " policy=" << static_cast<int>(policy) << " tiles=" << tiles
            << " grid=" << w << "x" << h;
      }
    }
  }
}

// ------------------------------------------------------------- edge cases

TEST(ChainEdge, Depth1DegradesToSingleLaunch) {
  core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(97, 83);
  fill_random(src, 42);

  Grid2D<float> out(97, 83);
  const auto st = core::run_chain2d<float>(
      sim::tesla_v100(), src, out, {core::ChainStage<float>::stencil(shape)});
  EXPECT_FALSE(st.persistent) << "a depth-1 chain has no inter-stage flow to fuse";
  EXPECT_EQ(st.sweeps, 1);

  // Independent reference: one sweep of the iteration engine's relaunch path.
  Grid2D<float> ra = src, rb(97, 83);
  core::PersistentOptions ref;
  ref.policy = core::IterationPolicy::kRelaunch;
  (void)core::iterate_stencil2d_persistent<float>(sim::tesla_v100(), ra, rb, shape, 1,
                                                  ref);
  ASSERT_TRUE(bits_equal(ra.data(), out.data(), static_cast<std::size_t>(out.size())));
}

TEST(ChainEdge, TemporalAndPlainStagesMix) {
  PoolSizeGuard guard;
  ThreadPool::reset_global(4);
  core::StencilShape<float> s1 = core::star2d<float>(1);
  core::StencilShape<float> s2 = core::star2d<float>(2);
  std::vector<core::ChainStage<float>> stages = {
      core::ChainStage<float>::stencil(s1, 3),  // temporal t=3
      core::ChainStage<float>::stencil(s2),     // plain, deeper reach
      core::ChainStage<float>::dual_stencil(
          s1, s2, [](float a, float b) { return a + 0.5f * b; }),
      core::ChainStage<float>::stencil(s1, 2).with_map(
          [](float v) { return v < 0.0f ? 0.0f : v; }),
  };
  Grid2D<float> src(181, 149);
  fill_random(src, 7);

  Grid2D<float> staged(181, 149);
  core::PersistentOptions ref;
  ref.policy = core::IterationPolicy::kRelaunch;
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, staged, stages, ref);

  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  opt.tiles = 3;
  opt.shard = core::ShardPolicy::sharded(2);
  Grid2D<float> fused(181, 149);
  const auto st = core::run_chain2d<float>(sim::tesla_v100(), src, fused, stages, opt);
  EXPECT_TRUE(st.persistent);
  EXPECT_TRUE(st.sharded);
  ASSERT_TRUE(
      bits_equal(staged.data(), fused.data(), static_cast<std::size_t>(src.size())));
}

TEST(ChainEdge, DualStageMatchesSeparateBranchesBitwise) {
  // The zero-coefficient padding that aligns the two shuffle schedules must
  // be a bitwise no-op: a dual stage equals running each branch as its own
  // single-stage chain and combining on the host.
  SplitMix64 rng(base_seed());
  core::StencilShape<float> sa = random_shape(rng);
  core::StencilShape<float> sb = random_shape(rng);
  auto join = [](float a, float b) { return a - 0.25f * b; };
  Grid2D<float> src(121, 95);
  fill_random(src, 11);

  Grid2D<float> dual_out(121, 95);
  (void)core::run_chain2d<float>(
      sim::tesla_v100(), src, dual_out,
      {core::ChainStage<float>::dual_stencil(sa, sb, join)});

  Grid2D<float> oa(121, 95), ob(121, 95);
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, oa,
                                 {core::ChainStage<float>::stencil(sa)});
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, ob,
                                 {core::ChainStage<float>::stencil(sb)});
  for (Index i = 0; i < oa.size(); ++i) oa.data()[i] = join(oa.data()[i], ob.data()[i]);
  ASSERT_TRUE(
      bits_equal(oa.data(), dual_out.data(), static_cast<std::size_t>(src.size())));
}

TEST(ChainEdge, Depth32DistinctStagesFusedMatchesStaged) {
  // The differential suite draws depths 2..8; a deep chain keeps 32 stages
  // resident in one persistent run, each with its own coefficients so no
  // stage repeats its neighbour.
  PoolSizeGuard guard;
  ThreadPool::reset_global(4);
  constexpr int kDepth = 32;
  std::vector<core::ChainStage<float>> stages;
  for (int i = 0; i < kDepth; ++i) {
    core::StencilShape<float> s = core::star2d<float>(1);
    for (auto& tap : s.taps) tap.coeff *= 1.0f + 0.01f * static_cast<float>(i);
    stages.push_back(core::ChainStage<float>::stencil(std::move(s)));
  }
  Grid2D<float> src(157, 211);
  fill_random(src, 29);

  Grid2D<float> staged(157, 211);
  core::PersistentOptions ref;
  ref.policy = core::IterationPolicy::kRelaunch;
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, staged, stages, ref);

  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;  // tiles = 0: auto
  Grid2D<float> fused(157, 211);
  const auto st = core::run_chain2d<float>(sim::tesla_v100(), src, fused, stages, opt);
  EXPECT_TRUE(st.persistent);
  EXPECT_EQ(st.sweeps, kDepth);
  EXPECT_GT(st.tiles, 1) << "a single tile exchanges no halos";
  ASSERT_TRUE(
      bits_equal(staged.data(), fused.data(), static_cast<std::size_t>(src.size())));
}

TEST(ChainEdge, ValidationRejectsBadChains) {
  Grid2D<float> a(64, 64), b(64, 64);
  core::StencilShape<float> s = core::star2d<float>(1);
  const std::vector<core::ChainStage<float>> one = {core::ChainStage<float>::stencil(s)};
  EXPECT_THROW((void)core::run_chain2d<float>(sim::tesla_v100(), a, b, {}),
               PreconditionError);
  // Aliased input/output.
  EXPECT_THROW((void)core::run_chain2d<float>(sim::tesla_v100(), a, a, one),
               PreconditionError);
  // Mismatched grids.
  Grid2D<float> c(32, 64);
  EXPECT_THROW((void)core::run_chain2d<float>(sim::tesla_v100(), a, c, one),
               PreconditionError);
  // Dual stage with temporal blocking.
  core::ChainStage<float> bad = core::ChainStage<float>::dual_stencil(
      s, s, [](float x, float y) { return x + y; });
  bad.t = 2;
  EXPECT_THROW((void)core::run_chain2d<float>(sim::tesla_v100(), a, b, {bad}),
               PreconditionError);
}

// --------------------------------------------------------- graph lowering

TEST(ChainGraphLowering, DiamondBecomesDualStage) {
  core::StencilShape<float> blur = core::box2d<float>(3, 3);
  core::StencilShape<float> gx = core::star2d<float>(1);
  core::StencilShape<float> gy = core::star2d<float>(1);
  gx.taps = {{-1, 0, 0, -1.0f}, {1, 0, 0, 1.0f}};
  gy.taps = {{0, -1, 0, -1.0f}, {0, 1, 0, 1.0f}};

  core::ChainGraph<float> g;
  const int in = g.input();
  const int b = g.stencil(in, blur);
  const int x = g.stencil(b, gx);
  const int y = g.stencil(b, gy);
  const int m = g.combine(x, y, [](float a, float c) { return std::hypot(a, c); });
  const int th = g.map(m, [](float v) { return v > 0.5f ? v : 0.0f; });
  (void)th;
  const std::vector<core::ChainStage<float>> stages = g.compile();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_FALSE(stages[0].dual());
  EXPECT_TRUE(stages[1].dual());
  EXPECT_TRUE(static_cast<bool>(stages[1].map));

  // And the lowered chain holds the parity invariant.
  Grid2D<float> src(140, 101);
  fill_random(src, 5);
  Grid2D<float> staged(140, 101), fused(140, 101);
  core::PersistentOptions ref;
  ref.policy = core::IterationPolicy::kRelaunch;
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, staged, stages, ref);
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, fused, stages, opt);
  ASSERT_TRUE(
      bits_equal(staged.data(), fused.data(), static_cast<std::size_t>(src.size())));
}

TEST(ChainGraphLowering, ConsecutiveMapsFuseIntoOneStage) {
  core::StencilShape<float> s = core::star2d<float>(1);
  core::ChainGraph<float> g;
  const int in = g.input();
  const int a = g.stencil(in, s);
  const int m1 = g.map(a, [](float v) { return v * 2.0f; });
  const int m2 = g.map(m1, [](float v) { return v + 1.0f; });
  (void)m2;
  const std::vector<core::ChainStage<float>> stages = g.compile();
  ASSERT_EQ(stages.size(), 1u);
  ASSERT_TRUE(static_cast<bool>(stages[0].map));
  EXPECT_FLOAT_EQ(stages[0].map(3.0f), 7.0f) << "maps must compose in graph order";
}

TEST(ChainGraphLowering, MapOnInputLiftsToIdentityStage) {
  core::StencilShape<float> s = core::star2d<float>(1);
  core::ChainGraph<float> g;
  const int in = g.input();
  const int m = g.map(in, [](float v) { return std::abs(v); });
  const int a = g.stencil(m, s);
  (void)a;
  const std::vector<core::ChainStage<float>> stages = g.compile();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].shape.taps.size(), 1u);
  EXPECT_TRUE(static_cast<bool>(stages[0].map));
}

TEST(ChainGraphLowering, RejectsNonLinearizableGraphs) {
  core::StencilShape<float> s = core::star2d<float>(1);
  {
    // Three-way fan-out.
    core::ChainGraph<float> g;
    const int in = g.input();
    (void)g.stencil(in, s);
    (void)g.stencil(in, s);
    (void)g.stencil(in, s);
    EXPECT_THROW((void)g.compile(), PreconditionError);
  }
  {
    // Two-way fan-out that never rejoins: two sinks.
    core::ChainGraph<float> g;
    const int in = g.input();
    (void)g.stencil(in, s);
    (void)g.stencil(in, s);
    EXPECT_THROW((void)g.compile(), PreconditionError);
  }
  {
    // Empty graph.
    core::ChainGraph<float> g;
    EXPECT_THROW((void)g.compile(), PreconditionError);
  }
  {
    // Combine whose branches are maps, not stencils.
    core::ChainGraph<float> g;
    const int in = g.input();
    const int m1 = g.map(in, [](float v) { return v + 1.0f; });
    const int m2 = g.map(in, [](float v) { return v - 1.0f; });
    (void)g.combine(m1, m2, [](float a, float b) { return a * b; });
    EXPECT_THROW((void)g.compile(), PreconditionError);
  }
}

// ------------------------------------------------------------ job surface

TEST(ChainJob, RunJobAndServerSubmitMatchDirectRun) {
  core::StencilShape<float> s1 = core::star2d<float>(1);
  core::StencilShape<float> s2 = core::box2d<float>(3, 3);
  std::vector<core::ChainStage<float>> stages = {
      core::ChainStage<float>::stencil(s1),
      core::ChainStage<float>::stencil(s2).with_map(
          [](float v) { return std::abs(v); }),
      core::ChainStage<float>::stencil(s1, 2),
  };
  Grid2D<float> src(150, 122);
  fill_random(src, 23);

  Grid2D<float> direct(150, 122);
  core::PersistentOptions opt;
  opt.policy = core::IterationPolicy::kPersistent;
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, direct, stages, opt);

  // run_job dispatch.
  Grid2D<float> via_job(150, 122);
  core::JobHints hints;
  hints.policy = core::IterationPolicy::kPersistent;
  {
    Grid2D<float> in = src;
    const auto st = core::run_job(
        sim::tesla_v100(), core::SimJob::chain2d(in, via_job, stages, hints));
    EXPECT_TRUE(st.persistent);
    EXPECT_EQ(st.sweeps, 3);
  }
  ASSERT_TRUE(
      bits_equal(direct.data(), via_job.data(), static_cast<std::size_t>(src.size())));

  // Server dispatch (device-pinned, leased workspace).
  Grid2D<float> in = src;
  Grid2D<float> via_server(150, 122);
  core::SimServer server{core::ServerOptions{}};
  core::JobFuture fut =
      server.submit(core::SimJob::chain2d(in, via_server, stages, hints));
  const core::JobResult& r = fut.wait();
  ASSERT_EQ(r.status, core::JobStatus::kCompleted);
  EXPECT_EQ(r.run.sweeps, 3);
  ASSERT_TRUE(bits_equal(direct.data(), via_server.data(),
                         static_cast<std::size_t>(src.size())));
}

TEST(ChainJob, WarmWorkspaceServesStagedAndFusedRuns) {
  // One workspace across a staged run, a fused run, and a repeat of each:
  // the scratch block (staged intermediates) and the arena (fused residence
  // buffers) must not invalidate each other, and warm reuse must not change
  // results.
  core::StencilShape<float> s = core::star2d<float>(2);
  std::vector<core::ChainStage<float>> stages = {
      core::ChainStage<float>::stencil(s),
      core::ChainStage<float>::stencil(s).with_map(
          [](float v) { return 0.5f * v; }),
      core::ChainStage<float>::stencil(s),
  };
  Grid2D<float> src(133, 117);
  fill_random(src, 31);

  sim::PersistentWorkspace ws;
  core::PersistentOptions staged_opt;
  staged_opt.policy = core::IterationPolicy::kRelaunch;
  core::PersistentOptions fused_opt;
  fused_opt.policy = core::IterationPolicy::kPersistent;

  Grid2D<float> cold_staged(133, 117), cold_fused(133, 117);
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, cold_staged, stages,
                                 staged_opt, &ws);
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, cold_fused, stages, fused_opt,
                                 &ws);
  Grid2D<float> warm_staged(133, 117), warm_fused(133, 117);
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, warm_staged, stages,
                                 staged_opt, &ws);
  (void)core::run_chain2d<float>(sim::tesla_v100(), src, warm_fused, stages, fused_opt,
                                 &ws);
  ASSERT_TRUE(bits_equal(cold_staged.data(), cold_fused.data(),
                         static_cast<std::size_t>(src.size())));
  ASSERT_TRUE(bits_equal(cold_staged.data(), warm_staged.data(),
                         static_cast<std::size_t>(src.size())));
  ASSERT_TRUE(bits_equal(cold_staged.data(), warm_fused.data(),
                         static_cast<std::size_t>(src.size())));
}

}  // namespace
