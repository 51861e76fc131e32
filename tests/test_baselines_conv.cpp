// Every convolution baseline (ArrayFire-like, NPP-like, Halide-like,
// cuDNN-like, cuFFT-like) vs the scalar reference.
#include <gtest/gtest.h>

#include "baselines/conv2d_direct.hpp"
#include "baselines/conv2d_fft.hpp"
#include "baselines/conv2d_gemm.hpp"
#include "baselines/conv2d_halide.hpp"
#include "baselines/conv2d_smem.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gpusim/arch.hpp"
#include "reference/conv.hpp"

namespace {

using namespace ssam;

template <typename T>
struct ConvFixture {
  Grid2D<T> in;
  std::vector<T> w;
  Grid2D<T> want;
  int m, n;

  ConvFixture(Index width, Index height, int fm, int fn)
      : in(width, height), w(static_cast<std::size_t>(fm) * fn), want(width, height),
        m(fm), n(fn) {
    fill_random(in, 3);
    fill_random(w, 4, -0.5, 0.5);
    ref::conv2d<T>(in.cview(), w, m, n, want.view());
  }

  void expect_close(const Grid2D<T>& got, const char* label) const {
    EXPECT_LE(normalized_max_diff<T>({got.data(), static_cast<std::size_t>(got.size())},
                                     {want.data(), static_cast<std::size_t>(want.size())}),
              verify_tolerance<T>(static_cast<std::size_t>(m) * n))
        << label << " M=" << m << " N=" << n;
  }
};

struct Case {
  int m, n;
};

class BaselineConvSweep : public ::testing::TestWithParam<Case> {};

TEST_P(BaselineConvSweep, SmemMatches) {
  ConvFixture<float> fx(90, 70, GetParam().m, GetParam().n);
  Grid2D<float> got(90, 70);
  base::conv2d_smem<float>(sim::tesla_v100(), fx.in.cview(), fx.w, fx.m, fx.n, got.view());
  fx.expect_close(got, "ArrayFire-like");
}

TEST_P(BaselineConvSweep, DirectMatches) {
  ConvFixture<float> fx(90, 70, GetParam().m, GetParam().n);
  Grid2D<float> got(90, 70);
  base::conv2d_direct<float>(sim::tesla_v100(), fx.in.cview(), fx.w, fx.m, fx.n, got.view());
  fx.expect_close(got, "NPP-like");
}

TEST_P(BaselineConvSweep, HalideMatches) {
  ConvFixture<float> fx(90, 70, GetParam().m, GetParam().n);
  Grid2D<float> got(90, 70);
  base::conv2d_halide<float>(sim::tesla_v100(), fx.in.cview(), fx.w, fx.m, fx.n, got.view());
  fx.expect_close(got, "Halide-like");
}

TEST_P(BaselineConvSweep, GemmMatchesWhenSupported) {
  if (!base::cudnn_supports(GetParam().m, GetParam().n)) {
    GTEST_SKIP() << "cuDNN path: odd filters only";
  }
  ConvFixture<float> fx(90, 70, GetParam().m, GetParam().n);
  Grid2D<float> got(90, 70);
  base::conv2d_gemm<float>(sim::tesla_v100(), fx.in.cview(), fx.w, fx.m, fx.n, got.view());
  fx.expect_close(got, "cuDNN-like");
}

INSTANTIATE_TEST_SUITE_P(Filters, BaselineConvSweep,
                         ::testing::Values(Case{2, 2}, Case{3, 3}, Case{4, 4}, Case{5, 5},
                                           Case{7, 7}, Case{9, 9}, Case{11, 11}, Case{13, 13},
                                           Case{16, 16}, Case{20, 20}, Case{3, 7},
                                           Case{7, 3}),
                         [](const auto& info) {
                           std::string name = "M";
                           name += std::to_string(info.param.m);
                           name += "N";
                           name += std::to_string(info.param.n);
                           return name;
                         });

TEST(ConvFft, MatchesZeroBorderReference) {
  // FFT convolution implements the zero border; compare against the
  // reference run with Border::kZero.
  const Index width = 61, height = 45;
  for (auto [m, n] : {std::pair{3, 3}, std::pair{5, 7}, std::pair{9, 9}}) {
    Grid2D<float> in(width, height);
    fill_random(in, 8);
    std::vector<float> w(static_cast<std::size_t>(m) * n);
    fill_random(w, 9, -0.5, 0.5);
    Grid2D<float> got(width, height), want(width, height);
    base::conv2d_fft<float>(in.cview(), w, m, n, got.view());
    ref::conv2d<float>(in.cview(), w, m, n, want.view(), Border::kZero);
    EXPECT_LE(
        normalized_max_diff<float>({got.data(), static_cast<std::size_t>(got.size())},
                                   {want.data(), static_cast<std::size_t>(want.size())}),
        1e-3)  // FFT roundtrip in fp32 is looser than direct accumulation
        << "M=" << m << " N=" << n;
  }
}

TEST(ConvFft, TimingIsFlatAcrossFilterSizes) {
  const auto& arch = sim::tesla_v100();
  const auto t3 = base::conv2d_fft_time<float>(arch, 1024, 1024, 3, 3);
  const auto t19 = base::conv2d_fft_time<float>(arch, 1024, 1024, 19, 19);
  // Same plan size => (near) identical runtime: the defining cuFFT shape.
  EXPECT_NEAR(t3.estimate.total_ms, t19.estimate.total_ms,
              0.05 * t3.estimate.total_ms + 1e-6);
}

TEST(ConvFft, FftSubstrateRoundTrip) {
  std::vector<std::complex<double>> v(256);
  SplitMix64 rng(5);
  for (auto& c : v) c = {rng.next_in(-1, 1), rng.next_in(-1, 1)};
  auto orig = v;
  base::fft_inplace(v.data(), 256, false);
  base::fft_inplace(v.data(), 256, true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-12);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-12);
  }
}

TEST(ConvFft, ParsevalProperty) {
  // Property: FFT preserves energy (up to the 1/n convention).
  const Index n = 512;
  std::vector<std::complex<double>> v(static_cast<std::size_t>(n));
  SplitMix64 rng(6);
  double energy_in = 0;
  for (auto& c : v) {
    c = {rng.next_in(-1, 1), rng.next_in(-1, 1)};
    energy_in += std::norm(c);
  }
  base::fft_inplace(v.data(), n, false);
  double energy_out = 0;
  for (auto& c : v) energy_out += std::norm(c);
  EXPECT_NEAR(energy_out / static_cast<double>(n), energy_in, 1e-9 * energy_in);
}

}  // namespace
