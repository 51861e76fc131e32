// Image pipeline: Gaussian blur + Sobel edge detection on a synthetic image,
// expressed as a stencil-chain DAG (core/chain.hpp) and compiled into ONE
// persistent run — blur output feeds the forked Sobel pair in-resident, the
// gradients join element-wise into the magnitude, and only the final edge
// map is written to global memory. The staged reference (one launch per
// stage, intermediates round-tripped through two relay arrays carved from
// the workspace arena) runs on the SAME warm workspace, so the
// fused-vs-staged comparison is an honest like-for-like: same kernels, same
// allocations, different data movement. PGM files are written for any
// image viewer.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>

#include "baselines/conv2d_direct.hpp"
#include "common/grid.hpp"
#include "core/chain.hpp"
#include "core/conv2d.hpp"
#include "gpusim/timing.hpp"

namespace {

using namespace ssam;

/// Synthetic test card: gradient + circles + bars (edges in all directions).
Grid2D<float> make_test_image(Index n) {
  Grid2D<float> img(n, n);
  for (Index y = 0; y < n; ++y) {
    for (Index x = 0; x < n; ++x) {
      float v = 0.2f + 0.3f * static_cast<float>(x) / static_cast<float>(n);
      const float dx = static_cast<float>(x - n / 2);
      const float dy = static_cast<float>(y - n / 2);
      const float r = std::sqrt(dx * dx + dy * dy);
      if (r < static_cast<float>(n) / 4 && r > static_cast<float>(n) / 5) v = 1.0f;
      if ((x / 16) % 2 == 0 && y > 3 * n / 4) v = 0.9f;
      img.at(x, y) = v;
    }
  }
  return img;
}

void write_pgm(const Grid2D<float>& img, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  f << "P5\n" << img.width() << " " << img.height() << "\n255\n";
  for (Index y = 0; y < img.height(); ++y) {
    for (Index x = 0; x < img.width(); ++x) {
      const float v = std::min(1.0f, std::max(0.0f, img.at(x, y)));
      f.put(static_cast<char>(v * 255.0f));
    }
  }
  std::cout << "wrote " << path << "\n";
}

std::vector<float> gaussian5x5() {
  const float k[5] = {1, 4, 6, 4, 1};
  std::vector<float> w(25);
  float sum = 0;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      w[static_cast<std::size_t>(y * 5 + x)] = k[y] * k[x];
      sum += w[static_cast<std::size_t>(y * 5 + x)];
    }
  }
  for (auto& v : w) v /= sum;
  return w;
}

/// Row-major m x n correlation filter as a stencil shape (zero weights
/// dropped — the plan does not need them).
core::StencilShape<float> filter_shape(std::string name, const std::vector<float>& f,
                                       int m, int n) {
  core::StencilShape<float> s;
  s.name = std::move(name);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float w = f[static_cast<std::size_t>(i * n + j)];
      if (w != 0.0f) s.taps.push_back({j - n / 2, i - m / 2, 0, w});
    }
  }
  return s;
}

double run_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  using namespace ssam;
  const Index n = 512;
  Grid2D<float> img = make_test_image(n);
  write_pgm(img, "pipeline_input.pgm");

  // The pipeline as a chain DAG: blur, then the two Sobel gradients forked
  // off the blurred image and joined into the gradient magnitude. compile()
  // lowers the diamond onto two stages — the second a dual stencil whose
  // partial sums share one register-cache pass.
  const std::vector<float> sobel_x = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
  const std::vector<float> sobel_y = {-1, -2, -1, 0, 0, 0, 1, 2, 1};
  core::ChainGraph<float> g;
  const int in = g.input();
  const int blur = g.stencil(in, filter_shape("gauss5x5", gaussian5x5(), 5, 5));
  const int gx = g.stencil(blur, filter_shape("sobel_x", sobel_x, 3, 3));
  const int gy = g.stencil(blur, filter_shape("sobel_y", sobel_y, 3, 3));
  (void)g.combine(gx, gy,
                  [](float a, float b) { return std::sqrt(a * a + b * b); });
  const std::vector<core::ChainStage<float>> stages = g.compile();
  std::cout << "chain DAG (4 kernels + join) compiled to " << stages.size()
            << " fused stages\n";

  // One warm workspace serves both paths, one run at a time: the staged
  // reference carves its two relay arrays from the arena, the fused run its
  // residence buffers — each run carves afresh, so neither needs the
  // other's carving to survive.
  sim::PersistentWorkspace ws;
  Grid2D<float> edges_staged(n, n), edges_fused(n, n);
  core::PersistentOptions staged_opt;
  staged_opt.policy = core::IterationPolicy::kRelaunch;
  core::PersistentOptions fused_opt;
  fused_opt.policy = core::IterationPolicy::kPersistent;

  auto staged = [&] {
    (void)core::run_chain2d<float>(sim::tesla_v100(), img, edges_staged, stages,
                                   staged_opt, &ws);
  };
  auto fused = [&] {
    (void)core::run_chain2d<float>(sim::tesla_v100(), img, edges_fused, stages,
                                   fused_opt, &ws);
  };
  staged();  // cold: allocates the arena
  fused();   // cold: grows it to the residence buffers if they need more
  const double staged_ms = run_ms(staged);
  const double fused_ms = run_ms(fused);
  std::cout << "staged (one launch per stage): " << staged_ms << " ms, fused (one "
            << "persistent launch): " << fused_ms << " ms on "
            << ThreadPool::global().size() << " pool worker(s)\n";

  const bool identical =
      std::memcmp(edges_staged.data(), edges_fused.data(),
                  static_cast<std::size_t>(edges_staged.size()) * sizeof(float)) == 0;
  std::cout << "fused vs staged: " << (identical ? "bit-identical" : "MISMATCH") << "\n";
  write_pgm(edges_fused, "pipeline_edges.pgm");

  // Cross-check the blur stage (depth-1 chain, same workspace) against the
  // NPP-like direct baseline.
  Grid2D<float> blurred(n, n);
  (void)core::run_chain2d<float>(sim::tesla_v100(), img, blurred, {stages.front()},
                                 staged_opt, &ws);
  write_pgm(blurred, "pipeline_blurred.pgm");
  Grid2D<float> blurred_npp(n, n);
  base::conv2d_direct<float>(sim::tesla_v100(), img.cview(), gaussian5x5(), 5, 5,
                             blurred_npp.view());
  double max_diff = 0;
  for (Index i = 0; i < blurred.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(blurred.data()[i]) -
                                           blurred_npp.data()[i]));
  }
  std::cout << "SSAM vs NPP-like max difference: " << max_diff << " (should be ~1e-7)\n";

  // What would the blur cost on a V100?
  auto s1 = core::conv2d_ssam<float>(sim::tesla_v100(), img.cview(), gaussian5x5(), 5, 5,
                                     blurred.view(), {}, sim::ExecMode::kTiming);
  auto s2 = base::conv2d_direct<float>(sim::tesla_v100(), img.cview(), gaussian5x5(), 5,
                                       5, blurred_npp.view(), {}, sim::ExecMode::kTiming);
  std::cout << "blur 512x512, estimated V100 runtime: SSAM "
            << sim::estimate_runtime(sim::tesla_v100(), s1).total_ms << " ms vs NPP-like "
            << sim::estimate_runtime(sim::tesla_v100(), s2).total_ms << " ms\n";
  return identical ? 0 : 1;
}
