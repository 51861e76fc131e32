// Section 5 analytical model: the paper's inequalities as properties, plus
// blocking-geometry invariants.
#include <gtest/gtest.h>

#include "core/conv2d.hpp"
#include "core/dgraph.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil_suite.hpp"
#include "gpusim/arch.hpp"
#include "perfmodel/latency_model.hpp"
#include "rcache/blocking.hpp"

namespace {

using namespace ssam;

class ModelSweep : public ::testing::TestWithParam<const sim::ArchSpec*> {};

TEST_P(ModelSweep, DifPositiveForAllFiltersAtLeast2) {
  // Equation 5's conclusion: Dif >> 0 for M >= 2, N >= 2.
  const perf::MicroLatencies lat = perf::from_arch(*GetParam());
  for (int m = 2; m <= 32; ++m) {
    for (int n = 2; n <= 32; ++n) {
      EXPECT_GT(perf::dif_smem_reg(m, n, lat), 0.0) << "M=" << m << " N=" << n;
    }
  }
}

TEST_P(ModelSweep, SsamLatencyBelowSmemLatency) {
  const perf::MicroLatencies lat = perf::from_arch(*GetParam());
  for (int m = 2; m <= 20; ++m) {
    EXPECT_LT(perf::latency_ssam_method(m, m, lat), perf::latency_smem_method(m, m, lat));
  }
}

TEST_P(ModelSweep, DifGrowsWithFilterArea) {
  const perf::MicroLatencies lat = perf::from_arch(*GetParam());
  double prev = 0;
  for (int m = 2; m <= 20; ++m) {
    const double d = perf::dif_smem_reg(m, m, lat);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Archs, ModelSweep,
                         ::testing::Values(&sim::tesla_p100(), &sim::tesla_v100()),
                         [](const auto& info) { return info.param->name; });

TEST(HaloModel, RatioWithinBoundForAllGeometries) {
  // With P = 1 the paper's formula degenerates to HRrc = 1 (C = N: the whole
  // cache is halo relative to a single output row), so the strict bound is
  // checked for P >= 2.
  for (int m = 2; m <= 20; ++m) {
    for (int n = 2; n <= 20; ++n) {
      EXPECT_DOUBLE_EQ(perf::halo_ratio_rc(m, n, 1), 1.0);
      for (int p : {2, 4, 8, 16}) {
        const double hr = perf::halo_ratio_rc(m, n, p);
        EXPECT_GT(hr, 0.0);
        EXPECT_LT(hr, 1.0);
        EXPECT_LT(hr, perf::halo_ratio_bound(m, n, p)) << m << "x" << n << " P=" << p;
      }
    }
  }
}

TEST(HaloModel, LargerWindowLowersHaloRatio) {
  for (int m : {3, 9, 20}) {
    double prev = 1.0 + 1e-12;
    for (int p : {1, 2, 4, 8, 16, 32}) {
      const double hr = perf::halo_ratio_rc(m, m, p);
      EXPECT_LT(hr, prev) << "M=" << m << " P=" << p;
      prev = hr;
    }
  }
}

TEST(HaloModel, MatchesBlockingGeometryCount) {
  // HRrc must equal the fraction of loaded elements that are not unique
  // outputs in the blocking geometry: (S*C - (S-M)(C-N)) / (S*C). Cross-check
  // against first-principles counting with the Blocking2D accessors.
  for (int m : {2, 5, 9}) {
    for (int n : {2, 5, 9}) {
      for (int p : {1, 4, 8}) {
        const double s = sim::kWarpSize;
        const double c = p + n - 1;
        const double direct = (s * c - (s - m) * (c - n)) / (s * c);
        EXPECT_DOUBLE_EQ(core::Blocking2D::halo_ratio_rc(m, n, p), direct);
        EXPECT_DOUBLE_EQ(perf::halo_ratio_rc(m, n, p), direct);
      }
    }
  }
}

TEST(Blocking2D, GridCoversDomainExactly) {
  // Property: union of all warps' valid output columns covers [0, W) with
  // no gaps (overlap in *inputs* only).
  core::Blocking2D g;
  g.span = 8;
  g.dx_min = -4;
  g.rows_halo = 8;
  g.p = 4;
  g.block_threads = 128;
  const Index width = 1000, height = 333;
  const Dim3 grid = g.grid(width, height);
  std::vector<int> covered(static_cast<std::size_t>(width), 0);
  for (int bx = 0; bx < grid.x; ++bx) {
    for (int w = 0; w < g.warps_per_block(); ++w) {
      const long long lin = static_cast<long long>(bx) * g.warps_per_block() + w;
      const Index col0 = g.lane0_col(lin);
      for (int l = g.span; l < sim::kWarpSize; ++l) {
        const Index out_x = col0 + l - g.span - g.dx_min;  // anchor = span + dx_min
        if (out_x >= 0 && out_x < width) ++covered[static_cast<std::size_t>(out_x)];
      }
    }
  }
  for (Index x = 0; x < width; ++x) {
    EXPECT_EQ(covered[static_cast<std::size_t>(x)], 1) << "column " << x;
  }
  EXPECT_EQ(grid.y, static_cast<int>(ceil_div(height, g.p)));
}

TEST(Blocking3D, ValidPlanesAndHaloRatio) {
  core::Blocking3D g;
  g.plane.span = 2;
  g.plane.dx_min = -1;
  g.plane.p = 2;
  g.rz = 1;
  g.warps = 8;
  EXPECT_EQ(g.valid_planes(), 6);
  EXPECT_DOUBLE_EQ(g.z_halo_ratio(), 0.25);
  const Dim3 grid = g.grid(512, 512, 512);
  EXPECT_EQ(grid.x, static_cast<int>(ceil_div(512, 30)));
  EXPECT_EQ(grid.z, static_cast<int>(ceil_div(512, 6)));
}

TEST(SystolicPlanCost, ModelPrefersMinimalSchedule) {
  const perf::MicroLatencies lat = perf::from_arch(sim::tesla_v100());
  const auto min_plan = core::build_plan(core::star3d<float>(2).taps, false);
  const auto dense_plan = core::build_plan(core::star3d<float>(2).taps, true);
  EXPECT_LT(perf::plan_shift_cost(min_plan.horizontal_shifts(), lat),
            perf::plan_shift_cost(dense_plan.horizontal_shifts(), lat));
}

TEST(RegistersPerThread, SsamConvEstimateTracksWindowAndFilter) {
  // Paper: register cache needs C = P + N - 1 registers; estimates must grow
  // accordingly (they drive simulated occupancy).
  EXPECT_GT(core::conv2d_ssam_regs(9, 8), core::conv2d_ssam_regs(9, 4));
  EXPECT_GT(core::conv2d_ssam_regs(20, 4), core::conv2d_ssam_regs(3, 4));
  EXPECT_EQ(core::conv2d_ssam_regs(5, 4), (4 + 5 - 1) + 4 + 12);
}

TEST(RegistersPerThread, SsamStencilEstimateKeepsOneLevelAtT1) {
  // One stencil kernel serves every t, but the estimate stays two model
  // inputs: a single step keeps P accumulators live, fused steps two full
  // levels of C0 = P + t * rows_halo rows. Reusing the fused formula at t = 1
  // would lower the occupancy and move estimate_runtime of every stencil.
  Grid2D<float> in2(256, 256);
  const auto plan2 = core::build_plan(core::star2d<float>(5).taps);  // rows_halo 10
  core::StencilOptions o2;                                            // p = 4
  EXPECT_EQ(core::detail::stencil2d_setup(in2.cview(), plan2, o2).cfg.regs_per_thread,
            (4 + 10) + 4 + 10);
  o2.t = 2;
  EXPECT_EQ(core::detail::stencil2d_setup(in2.cview(), plan2, o2).cfg.regs_per_thread,
            2 * (4 + 2 * 10) + 12);

  Grid3D<float> in3(64, 64, 32);
  const auto plan3 = core::build_plan(core::star3d<float>(1).taps);  // rows_halo 2, 3 passes
  core::Stencil3DOptions o3;                                          // p = 2
  EXPECT_EQ(core::detail::stencil3d_setup(in3.cview(), plan3, o3).cfg.regs_per_thread,
            (2 + 2) + 2 * 3 + 12);
  o3.t = 2;
  EXPECT_EQ(core::detail::stencil3d_setup(in3.cview(), plan3, o3).cfg.regs_per_thread,
            2 * (2 + 2 * 2) + 2 * 3 + 12);
}

TEST(SparseLatency, DenseDegeneratesToEquation4) {
  // latency_ssam_taps with the full M*N tap count IS Equation 4 — the
  // sparse entry point generalizes, never diverges.
  const perf::MicroLatencies lat;
  for (int m = 1; m <= 9; m += 2) {
    for (int n = 1; n <= 9; n += 2) {
      EXPECT_DOUBLE_EQ(perf::latency_ssam_taps(m * n, m, lat),
                       perf::latency_ssam_method(m, n, lat));
    }
  }
}

TEST(SparseLatency, StarChargesTapsNotBoundingBox) {
  // A star-R 2D stencil executes 4R+1 taps inside a (2R+1)^2 bounding box.
  // The old bbox charge over-priced it ~2.9x at R=4 — exactly the unit
  // drift that skewed the server's shared shed EWMA across shape classes.
  const perf::MicroLatencies lat;
  for (int r = 1; r <= 4; ++r) {
    const int box = 2 * r + 1;
    const int taps = 4 * r + 1;
    const double sparse = perf::latency_ssam_taps(taps, box, lat);
    const double bbox = perf::latency_ssam_method(box, box, lat);
    EXPECT_LT(sparse, bbox);
    // Both charge the same shuffle walk; the MAC/read stream scales with
    // the actual tap count.
    EXPECT_DOUBLE_EQ(bbox - sparse,
                     (box * box - taps) * (lat.t_mad + lat.t_smem_read + 2 * lat.t_reg));
  }
}

TEST(SparseLatency, ShuffleTermFollowsHorizontalExtent) {
  // The register-cache shuffle walk moves along x (Eq. 4's M). A horizontal
  // 1x9 line pays 8 shuffles; a vertical 9x1 line pays none — with equal
  // tap counts the horizontal shape must cost exactly 8*Tshfl more.
  const perf::MicroLatencies lat;
  const double horizontal = perf::latency_ssam_taps(9, 9, lat);
  const double vertical = perf::latency_ssam_taps(9, 1, lat);
  EXPECT_DOUBLE_EQ(horizontal - vertical, 8 * lat.t_shfl);
}

}  // namespace
