// The execution service: the work-stealing thread pool.
//
// Pins the contracts the job server relies on:
//  * functional results are bit-identical across pool sizes (1, 4, and the
//    machine's hardware_concurrency) for scan, conv2d and the temporal
//    stencil — block scheduling must never leak into results;
//  * the pool parallel loops behave (caller participation, nesting, empty
//    and tiny ranges).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/conv2d.hpp"
#include "core/scan.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::PoolSizeGuard;

// --------------------------------------------------------------- pool basics

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(hardware_concurrency(), 1);
  EXPECT_GE(ThreadPool::global().size(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  PoolSizeGuard guard;
  for (int workers : {1, 4}) {
    ThreadPool::reset_global(workers);
    std::vector<int> hits(10000, 0);
    parallel_for(static_cast<std::int64_t>(hits.size()),
                 [&](std::int64_t i) { hits[static_cast<std::size_t>(i)] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10000) << workers;
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
  }
}

TEST(ThreadPoolTest, ParallelForPooledMakesOneStatePerParticipant) {
  PoolSizeGuard guard;
  ThreadPool::reset_global(4);
  std::atomic<int> states{0};
  std::vector<int> hits(4096, 0);
  parallel_for_pooled(
      static_cast<std::int64_t>(hits.size()),
      [&] {
        states.fetch_add(1);
        return 0;
      },
      [&](std::int64_t i, int&) { hits[static_cast<std::size_t>(i)] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
  // Caller + at most one helper per worker may participate.
  EXPECT_GE(states.load(), 1);
  EXPECT_LE(states.load(), ThreadPool::global().size() + 1);
}

TEST(ThreadPoolTest, EmptyAndTinyRangesWork) {
  parallel_for(0, [&](std::int64_t) { FAIL() << "no indices expected"; });
  int hit = 0;
  parallel_for(1, [&](std::int64_t) { ++hit; });
  EXPECT_EQ(hit, 1);
}

TEST(ThreadPoolTest, NestedParallelLoopsDoNotDeadlock) {
  PoolSizeGuard guard;
  ThreadPool::reset_global(2);
  std::atomic<long long> total{0};
  parallel_for(8, [&](std::int64_t) {
    parallel_for(64, [&](std::int64_t) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

// --------------------------------------- determinism across pool sizes

/// Runs `run(out)` at several pool sizes and requires bit-identical output.
template <typename Run>
void expect_pool_size_invariant(Run&& run, const char* what) {
  PoolSizeGuard guard;
  ThreadPool::reset_global(1);
  const std::vector<float> reference = run();
  for (int workers : {4, hardware_concurrency()}) {
    ThreadPool::reset_global(workers);
    const std::vector<float> got = run();
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(got.data(), reference.data(),
                             got.size() * sizeof(float)))
        << what << " differs at pool size " << workers;
  }
}

TEST(PoolDeterminism, ScanBitIdenticalAcrossPoolSizes) {
  std::vector<float> in(1 << 18);
  SplitMix64 rng(7);
  for (auto& v : in) v = static_cast<float>(rng.next_in(-1.0, 1.0));
  expect_pool_size_invariant(
      [&] {
        std::vector<float> out(in.size());
        (void)core::scan_inclusive<float>(sim::tesla_v100(), in, out);
        return out;
      },
      "scan");
}

TEST(PoolDeterminism, Conv2dBitIdenticalAcrossPoolSizes) {
  Grid2D<float> in(301, 177);
  fill_random(in, 11);
  const std::vector<float> weights(5 * 5, 0.04f);
  expect_pool_size_invariant(
      [&] {
        Grid2D<float> out(in.width(), in.height());
        (void)core::conv2d_ssam<float>(sim::tesla_v100(), in.cview(), weights, 5, 5,
                                       out.view());
        return std::vector<float>(out.data(), out.data() + out.size());
      },
      "conv2d");
}

TEST(PoolDeterminism, TemporalStencilBitIdenticalAcrossPoolSizes) {
  Grid2D<float> in(257, 129);
  fill_random(in, 13);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  expect_pool_size_invariant(
      [&] {
        Grid2D<float> out(in.width(), in.height());
        core::StencilOptions opt;
        opt.t = 3;
        (void)core::stencil2d_ssam<float>(sim::tesla_v100(), in.cview(), shape, out.view(),
                                          opt);
        return std::vector<float>(out.data(), out.data() + out.size());
      },
      "temporal stencil");
}

}  // namespace
