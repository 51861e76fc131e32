// Stencil baselines (original/reordered/unrolled/Halide, ppcg-tiled, z-march,
// temporal blocking) vs the scalar reference.
#include <gtest/gtest.h>

#include "baselines/stencil_direct.hpp"
#include "baselines/stencil_temporal.hpp"
#include "baselines/stencil_tiled.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil_suite.hpp"
#include "gpusim/arch.hpp"
#include "reference/stencil.hpp"

namespace {

using namespace ssam;

template <typename T>
double diff2d(const Grid2D<T>& got, const Grid2D<T>& want) {
  return normalized_max_diff<T>({got.data(), static_cast<std::size_t>(got.size())},
                                {want.data(), static_cast<std::size_t>(want.size())});
}

class DirectStyles
    : public ::testing::TestWithParam<std::tuple<std::string, base::DirectStyle>> {};

TEST_P(DirectStyles, Matches2D) {
  const auto shape = core::suite_stencil<float>(std::get<0>(GetParam()));
  if (shape.dims != 2) GTEST_SKIP();
  Grid2D<float> in(77, 53), got(77, 53), want(77, 53);
  fill_random(in, 21);
  base::stencil2d_direct<float>(sim::tesla_p100(), in.cview(), shape, got.view(),
                                std::get<1>(GetParam()));
  ref::stencil2d<float>(in.cview(), shape.taps, want.view());
  EXPECT_LE(diff2d(got, want), verify_tolerance<float>(shape.taps.size()));
}

TEST_P(DirectStyles, Matches3D) {
  const auto shape = core::suite_stencil<float>(std::get<0>(GetParam()));
  if (shape.dims != 3) GTEST_SKIP();
  Grid3D<float> in(40, 22, 17), got(40, 22, 17), want(40, 22, 17);
  fill_random(in, 22);
  base::stencil3d_direct<float>(sim::tesla_p100(), in.cview(), shape, got.view(),
                                std::get<1>(GetParam()));
  ref::stencil3d<float>(in.cview(), shape.taps, want.view());
  EXPECT_LE(normalized_max_diff<float>({got.data(), static_cast<std::size_t>(got.size())},
                                       {want.data(), static_cast<std::size_t>(want.size())}),
            verify_tolerance<float>(shape.taps.size()));
}

INSTANTIATE_TEST_SUITE_P(
    StylesByShape, DirectStyles,
    ::testing::Combine(::testing::Values("2d5pt", "2d9pt", "2ds25pt", "2d25pt", "2d81pt",
                                         "3d7pt", "3d27pt", "poisson"),
                       ::testing::Values(base::DirectStyle::kOriginal,
                                         base::DirectStyle::kReordered,
                                         base::DirectStyle::kUnrolled,
                                         base::DirectStyle::kHalide)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::string(base::to_string(std::get<1>(info.param)));
    });

class TiledShapes : public ::testing::TestWithParam<std::string> {};

TEST_P(TiledShapes, PpcgStyleMatches) {
  const auto shape = core::suite_stencil<float>(GetParam());
  if (shape.dims == 2) {
    Grid2D<float> in(77, 53), got(77, 53), want(77, 53);
    fill_random(in, 23);
    base::stencil2d_smem_tiled<float>(sim::tesla_v100(), in.cview(), shape, got.view());
    ref::stencil2d<float>(in.cview(), shape.taps, want.view());
    EXPECT_LE(diff2d(got, want), verify_tolerance<float>(shape.taps.size()));
  } else {
    Grid3D<float> in(40, 21, 19), got(40, 21, 19), want(40, 21, 19);
    fill_random(in, 24);
    base::stencil3d_smem_tiled<float>(sim::tesla_v100(), in.cview(), shape, got.view());
    ref::stencil3d<float>(in.cview(), shape.taps, want.view());
    EXPECT_LE(
        normalized_max_diff<float>({got.data(), static_cast<std::size_t>(got.size())},
                                   {want.data(), static_cast<std::size_t>(want.size())}),
        verify_tolerance<float>(shape.taps.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Table3, TiledShapes,
                         ::testing::Values("2d5pt", "2d13pt", "2d25pt", "2d121pt", "3d7pt",
                                           "3d13pt", "3d27pt", "3d125pt", "poisson"),
                         [](const auto& info) { return info.param; });

TEST(ZMarch, MatchesReferenceForSuite3D) {
  for (const char* name : {"3d7pt", "3d13pt", "3d27pt", "poisson"}) {
    const auto shape = core::suite_stencil<float>(name);
    Grid3D<float> in(40, 24, 21), got(40, 24, 21), want(40, 24, 21);
    fill_random(in, 25);
    base::stencil3d_zmarch<float>(sim::tesla_p100(), in.cview(), shape, got.view());
    ref::stencil3d<float>(in.cview(), shape.taps, want.view());
    EXPECT_LE(
        normalized_max_diff<float>({got.data(), static_cast<std::size_t>(got.size())},
                                   {want.data(), static_cast<std::size_t>(want.size())}),
        verify_tolerance<float>(shape.taps.size()))
        << name;
  }
}

// Temporal blocking: interior cells (beyond the t*r ghost ring) must equal t
// reference sweeps exactly; ring cells follow the ghost-zone approximation.
template <typename T>
void expect_interior_match_2d(const Grid2D<T>& got, const Grid2D<T>& want, int margin,
                              double tol, const std::string& label) {
  double err = 0;
  double scale = 0;
  for (Index y = margin; y < want.height() - margin; ++y) {
    for (Index x = margin; x < want.width() - margin; ++x) {
      err = std::max(err, std::abs(static_cast<double>(got.at(x, y)) - want.at(x, y)));
      scale = std::max(scale, std::abs(static_cast<double>(want.at(x, y))));
    }
  }
  EXPECT_LE(err / std::max(scale, 1e-30), tol) << label;
}

TEST(TemporalSmem2D, InteriorMatchesIteratedReference) {
  for (int t : {1, 2, 3, 4}) {
    const auto shape = core::suite_stencil<float>("2d5pt");
    Grid2D<float> in(96, 64), got(96, 64);
    fill_random(in, 31);
    Grid2D<float> a = in, b(96, 64);
    for (int s = 0; s < t; ++s) {
      ref::stencil2d<float>(a.cview(), shape.taps, b.view());
      std::swap(a, b);
    }
    base::TemporalOptions opt{t};
    base::stencil2d_temporal_smem<float>(sim::tesla_v100(), in.cview(), shape, got.view(),
                                         opt);
    expect_interior_match_2d<float>(got, a, t * shape.order,
                                    verify_tolerance<float>(shape.taps.size() * t),
                                    "t=" + std::to_string(t));
  }
}

TEST(TemporalSmem3D, InteriorMatchesIteratedReference) {
  const int t = 2;
  const auto shape = core::suite_stencil<float>("3d7pt");
  Grid3D<float> in(48, 20, 16), got(48, 20, 16);
  fill_random(in, 32);
  Grid3D<float> a = in, b(48, 20, 16);
  for (int s = 0; s < t; ++s) {
    ref::stencil3d<float>(a.cview(), shape.taps, b.view());
    std::swap(a, b);
  }
  base::stencil3d_temporal_smem<float>(sim::tesla_v100(), in.cview(), shape, got.view(),
                                       base::TemporalOptions{t});
  const int m = t * shape.order;
  double err = 0, scale = 0;
  for (Index z = m; z < a.nz() - m; ++z) {
    for (Index y = m; y < a.ny() - m; ++y) {
      for (Index x = m; x < a.nx() - m; ++x) {
        err = std::max(err, std::abs(static_cast<double>(got.at(x, y, z)) - a.at(x, y, z)));
        scale = std::max(scale, std::abs(static_cast<double>(a.at(x, y, z))));
      }
    }
  }
  EXPECT_LE(err / std::max(scale, 1e-30), verify_tolerance<float>(shape.taps.size() * t));
}

TEST(TemporalSsam2D, InteriorMatchesIteratedReference) {
  for (const char* name : {"2d5pt", "2d9pt"}) {
    for (int t : {1, 2, 3}) {
      const auto shape = core::suite_stencil<float>(name);
      if (32 - t * 2 * shape.order * 2 < 8) continue;
      Grid2D<float> in(96, 64), got(96, 64);
      fill_random(in, 33);
      Grid2D<float> a = in, b(96, 64);
      for (int s = 0; s < t; ++s) {
        ref::stencil2d<float>(a.cview(), shape.taps, b.view());
        std::swap(a, b);
      }
      core::StencilOptions opt;
      opt.t = t;
      core::stencil2d_ssam<float>(sim::tesla_v100(), in.cview(), shape, got.view(), opt);
      expect_interior_match_2d<float>(got, a, t * shape.order,
                                      verify_tolerance<float>(shape.taps.size() * t),
                                      std::string(name) + " t=" + std::to_string(t));
    }
  }
}

}  // namespace
