// SSAM 2D convolution vs the scalar reference, swept over filter geometry.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/conv2d.hpp"
#include "gpusim/arch.hpp"
#include "reference/conv.hpp"

namespace {

using namespace ssam;

template <typename T>
void check_conv(Index width, Index height, int m, int n, int p = 4, int block_threads = 128) {
  Grid2D<T> in(width, height);
  fill_random(in, /*seed=*/42 + static_cast<std::uint64_t>(m * 100 + n));
  std::vector<T> w(static_cast<std::size_t>(m) * n);
  fill_random(w, /*seed=*/7, -0.5, 0.5);

  Grid2D<T> got(width, height, T{-1000});
  Grid2D<T> want(width, height);
  core::ConvOptions opt;
  opt.p = p;
  opt.block_threads = block_threads;
  core::conv2d_ssam<T>(sim::tesla_v100(), in.cview(), w, m, n, got.view(), opt);
  ref::conv2d<T>(in.cview(), w, m, n, want.view());

  const double tol = verify_tolerance<T>(static_cast<std::size_t>(m) * n);
  const double err = normalized_max_diff<T>({got.data(), static_cast<std::size_t>(got.size())},
                                     {want.data(), static_cast<std::size_t>(want.size())});
  EXPECT_LE(err, tol) << "W=" << width << " H=" << height << " M=" << m << " N=" << n
                      << " P=" << p;
}

TEST(Conv2DSsam, Small3x3) { check_conv<float>(64, 48, 3, 3); }
TEST(Conv2DSsam, Small5x5) { check_conv<float>(64, 48, 5, 5); }
TEST(Conv2DSsam, EvenFilter2x2) { check_conv<float>(64, 48, 2, 2); }
TEST(Conv2DSsam, Asymmetric7x3) { check_conv<float>(96, 40, 7, 3); }
TEST(Conv2DSsam, Asymmetric3x7) { check_conv<float>(96, 40, 3, 7); }
TEST(Conv2DSsam, Wide20x20) { check_conv<float>(128, 64, 20, 20); }
TEST(Conv2DSsam, NonDivisibleDomain) { check_conv<float>(101, 53, 5, 5); }
TEST(Conv2DSsam, TinyDomain) { check_conv<float>(9, 7, 3, 3); }
TEST(Conv2DSsam, Double9x9) { check_conv<double>(64, 64, 9, 9); }
TEST(Conv2DSsam, P1Window) { check_conv<float>(64, 64, 5, 5, /*p=*/1); }
TEST(Conv2DSsam, P8Window) { check_conv<float>(64, 64, 5, 5, /*p=*/8); }
TEST(Conv2DSsam, OneWarpBlocks) { check_conv<float>(64, 64, 3, 3, 4, /*block=*/32); }

struct ConvCase {
  int m, n;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, MatchesReference) {
  check_conv<float>(80, 70, GetParam().m, GetParam().n);
}

INSTANTIATE_TEST_SUITE_P(AllFilterSizes, ConvSweep,
                         ::testing::Values(ConvCase{2, 2}, ConvCase{3, 3}, ConvCase{4, 4},
                                           ConvCase{5, 5}, ConvCase{6, 6}, ConvCase{7, 7},
                                           ConvCase{8, 8}, ConvCase{9, 9}, ConvCase{10, 10},
                                           ConvCase{11, 11}, ConvCase{12, 12},
                                           ConvCase{13, 13}, ConvCase{15, 15},
                                           ConvCase{17, 17}, ConvCase{20, 20},
                                           ConvCase{2, 5}, ConvCase{5, 2}, ConvCase{1, 7},
                                           ConvCase{7, 1}, ConvCase{1, 1}),
                         [](const auto& info) {
                           std::string name = "M";
                           name += std::to_string(info.param.m);
                           name += "N";
                           name += std::to_string(info.param.n);
                           return name;
                         });

TEST(Conv2DSsam, TimingModeProducesStats) {
  const Index width = 256, height = 256;
  Grid2D<float> in(width, height);
  fill_random(in, 1);
  std::vector<float> w(25);
  fill_random(w, 2);
  Grid2D<float> out(width, height);
  auto stats = core::conv2d_ssam<float>(sim::tesla_p100(), in.cview(), w, 5, 5, out.view(),
                                        {}, sim::ExecMode::kTiming);
  EXPECT_GT(stats.blocks_total, 0);
  EXPECT_GT(stats.blocks_timed, 0);
  EXPECT_GT(stats.cycles_per_block, 0.0);
  EXPECT_GT(stats.totals.fp_ops, 0u);
  EXPECT_GT(stats.totals.shfl_ops, 0u);
  EXPECT_GT(stats.totals.dram_read_bytes, 0u);
  auto est = sim::estimate_runtime(sim::tesla_p100(), stats);
  EXPECT_GT(est.total_ms, 0.0);
}

}  // namespace
