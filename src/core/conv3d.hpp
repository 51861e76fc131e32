// SSAM 3D convolution — the paper's stated future work (Section 9: "we plan
// to apply our model to 3D/4D convolution workload for accelerating deep
// learning training").
//
// A dense M x N x K filter is exactly a box stencil whose coefficients are
// the filter weights, so the 3D convolution rides the Section 4.9 machinery:
// per-plane systolic sweeps, shared memory only for the inter-warp z
// combination, overlapped blocking in all three dimensions. DNN-style
// filters (3^3, 5^3) are small enough to travel as immediates baked into
// the systolic plan, like stencil coefficients (Section 4.8).
#pragma once

#include <span>

#include "core/stencil3d.hpp"

namespace ssam::core {

/// Builds the tap set of a dense 3D filter: weights stored row-major as
/// w[(k*N + n)*M + m] with x fastest, centered like the 2D convention.
template <typename T>
[[nodiscard]] StencilShape<T> conv3d_shape(std::span<const T> weights, int filter_m,
                                           int filter_n, int filter_k) {
  SSAM_REQUIRE(static_cast<Index>(weights.size()) ==
                   static_cast<Index>(filter_m) * filter_n * filter_k,
               "conv3d weight count mismatch");
  const int cx = (filter_m - 1) / 2;
  const int cy = (filter_n - 1) / 2;
  const int cz = (filter_k - 1) / 2;
  StencilShape<T> s;
  s.name = "conv3d-" + std::to_string(filter_m) + "x" + std::to_string(filter_n) + "x" +
           std::to_string(filter_k);
  s.dims = 3;
  s.order = std::max({cx, cy, cz});
  for (int k = 0; k < filter_k; ++k) {
    for (int n = 0; n < filter_n; ++n) {
      for (int m = 0; m < filter_m; ++m) {
        s.taps.push_back({m - cx, n - cy, k - cz,
                          weights[static_cast<std::size_t>((k * filter_n + n) * filter_m + m)]});
      }
    }
  }
  return s;
}

/// 3D convolution with replicate borders on the SSAM 3D kernel.
template <typename T>
KernelStats conv3d_ssam(const sim::ArchSpec& arch, const GridView3D<const T>& in,
                        std::span<const T> weights, int filter_m, int filter_n,
                        int filter_k, GridView3D<T> out, const Stencil3DOptions& opt = {},
                        ExecMode mode = ExecMode::kFunctional, SampleSpec sample = {}) {
  const StencilShape<T> shape = conv3d_shape(weights, filter_m, filter_n, filter_k);
  return stencil3d_ssam(arch, in, build_plan(shape.taps), out, opt, mode, sample);
}

}  // namespace ssam::core
