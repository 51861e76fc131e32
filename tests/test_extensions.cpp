// Extensions the paper sketches: 1D convolution (Section 3.5), GEMM on SSAM
// (Section 3.3), 3D convolution (Section 9 future work), and 3D in-register
// temporal blocking.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/conv1d.hpp"
#include "core/conv3d.hpp"
#include "core/gemm.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil_suite.hpp"
#include "gpusim/arch.hpp"
#include "reference/conv.hpp"
#include "reference/stencil.hpp"

namespace {

using namespace ssam;

class Conv1DTaps : public ::testing::TestWithParam<int> {};

TEST_P(Conv1DTaps, MatchesReference) {
  const int m = GetParam();
  std::vector<float> in(1003), f(static_cast<std::size_t>(m)), got(1003), want(1003);
  fill_random(in, 3);
  fill_random(f, 4, -0.5, 0.5);
  core::conv1d_ssam<float>(sim::tesla_v100(), in, f, got);
  ref::conv1d<float>(in, f, want);
  EXPECT_LE(normalized_max_diff<float>(got, want), verify_tolerance<float>(f.size()));
}

INSTANTIATE_TEST_SUITE_P(Taps, Conv1DTaps, ::testing::Values(1, 2, 3, 5, 9, 15, 31));

TEST(Conv1D, ShortArray) {
  std::vector<float> in(7), f(3), got(7), want(7);
  fill_random(in, 5);
  fill_random(f, 6);
  core::conv1d_ssam<float>(sim::tesla_p100(), in, f, got);
  ref::conv1d<float>(in, f, want);
  EXPECT_LE(normalized_max_diff<float>(got, want), verify_tolerance<float>(3));
}

struct GemmCase {
  Index m, k, n;
};

class GemmSizes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSizes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Grid2D<float> a(k, m), b(n, k), got(n, m), want(n, m);
  fill_random(a, 11);
  fill_random(b, 12);
  core::gemm_ssam<float>(sim::tesla_v100(), a.cview(), b.cview(), got.view());
  core::gemm_reference<float>(a.cview(), b.cview(), want.view());
  EXPECT_LE(normalized_max_diff<float>({got.data(), static_cast<std::size_t>(got.size())},
                                       {want.data(), static_cast<std::size_t>(want.size())}),
            verify_tolerance<float>(static_cast<std::size_t>(k)));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSizes,
                         ::testing::Values(GemmCase{32, 32, 32}, GemmCase{64, 128, 96},
                                           GemmCase{33, 17, 65}, GemmCase{1, 100, 1},
                                           GemmCase{128, 1, 128}, GemmCase{100, 64, 31}),
                         [](const auto& info) {
                           return "M" + std::to_string(info.param.m) + "K" +
                                  std::to_string(info.param.k) + "N" +
                                  std::to_string(info.param.n);
                         });

TEST(GemmSsam, TimingShowsComputeBound) {
  // GEMM should be compute-bound on the simulated V100 (Section 3.3's point
  // that SSAM generalizes beyond memory-bound kernels).
  Grid2D<float> a(512, 512), b(512, 512), c(512, 512);
  auto stats = core::gemm_ssam<float>(sim::tesla_v100(), a.cview(), b.cview(), c.view(),
                                      {}, sim::ExecMode::kTiming, {32, 4});
  const auto est = sim::estimate_runtime(sim::tesla_v100(), stats);
  EXPECT_EQ(est.bound, "compute");
  EXPECT_GT(stats.totals.shfl_ops, 0u);  // systolic operand broadcasts
}

struct F3 {
  int m, n, k;
};

std::string f3_name(const ::testing::TestParamInfo<F3>& info) {
  return std::to_string(info.param.m) + "x" + std::to_string(info.param.n) + "x" +
         std::to_string(info.param.k);
}

class Conv3DFilters : public ::testing::TestWithParam<F3> {};

TEST_P(Conv3DFilters, MatchesReference) {
  const int fm = GetParam().m;
  const int fn = GetParam().n;
  const int fk = GetParam().k;
  Grid3D<float> in(48, 20, 16), got(48, 20, 16), want(48, 20, 16);
  fill_random(in, 21);
  std::vector<float> w(static_cast<std::size_t>(fm) * fn * fk);
  fill_random(w, 22, -0.5, 0.5);
  core::conv3d_ssam<float>(sim::tesla_v100(), in.cview(), w, fm, fn, fk, got.view());
  const auto shape = core::conv3d_shape<float>(w, fm, fn, fk);
  ref::stencil3d<float>(in.cview(), shape.taps, want.view());
  EXPECT_LE(normalized_max_diff<float>({got.data(), static_cast<std::size_t>(got.size())},
                                       {want.data(), static_cast<std::size_t>(want.size())}),
            verify_tolerance<float>(w.size()));
}

INSTANTIATE_TEST_SUITE_P(DnnFilters, Conv3DFilters,
                         ::testing::Values(F3{3, 3, 3}, F3{5, 5, 5}, F3{3, 5, 3},
                                           F3{1, 1, 3}, F3{7, 3, 1}),
                         f3_name);

// 3D in-register temporal blocking: interior (beyond the t*r ghost region in
// every dimension) must equal t reference sweeps.
template <typename T>
void check_temporal3d(const char* name, int t, int warps) {
  const auto shape = core::suite_stencil<T>(name);
  Grid3D<T> in(64, 20, 24), got(64, 20, 24);
  fill_random(in, 31);
  Grid3D<T> a = in, b(64, 20, 24);
  for (int s = 0; s < t; ++s) {
    ref::stencil3d<T>(a.cview(), shape.taps, b.view());
    std::swap(a, b);
  }
  core::Stencil3DOptions opt;
  opt.t = t;
  opt.warps = warps;
  core::stencil3d_ssam<T>(sim::tesla_v100(), in.cview(), shape, got.view(), opt);
  const int mrg = t * shape.order;
  double err = 0, scale = 0;
  for (Index z = mrg; z < a.nz() - mrg; ++z) {
    for (Index y = mrg; y < a.ny() - mrg; ++y) {
      for (Index x = mrg; x < a.nx() - mrg; ++x) {
        err = std::max(err, std::abs(static_cast<double>(got.at(x, y, z)) - a.at(x, y, z)));
        scale = std::max(scale, std::abs(static_cast<double>(a.at(x, y, z))));
      }
    }
  }
  EXPECT_LE(err / std::max(scale, 1e-30),
            verify_tolerance<T>(shape.taps.size() * static_cast<std::size_t>(t)))
      << name << " t=" << t;
}

TEST(Temporal3DSsam, Star7ptTwoSteps) { check_temporal3d<float>("3d7pt", 2, 8); }
TEST(Temporal3DSsam, Star7ptThreeSteps) { check_temporal3d<float>("3d7pt", 3, 10); }
TEST(Temporal3DSsam, PoissonTwoSteps) { check_temporal3d<float>("poisson", 2, 8); }
TEST(Temporal3DSsam, Box27ptTwoSteps) { check_temporal3d<float>("3d27pt", 2, 8); }
TEST(Temporal3DSsam, Star13ptTwoSteps) { check_temporal3d<float>("3d13pt", 2, 12); }
TEST(Temporal3DSsam, DoublePrecision) { check_temporal3d<double>("3d7pt", 2, 8); }

}  // namespace
