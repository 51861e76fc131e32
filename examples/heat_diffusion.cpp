// Heat diffusion: iterate the 2D 5-point Jacobi stencil (Section 2.2) with
// SSAM until near steady state, render the temperature field as ASCII, and
// check the physics (maximum principle: temperatures stay within initial
// bounds under a convex stencil).
//
// The 400 sweeps are submitted as one `SimJob` to the simulation service
// (core/server.hpp): the server schedules the job onto a device of its
// group, and the job runs on the persistent iteration engine
// (core/iterate_persistent.hpp) pinned to that device's pool slice — tiles
// stay resident on their workers for the whole run, halos move through
// lock-free zero-copy channels, no per-step launch. The result is
// bit-identical to the single-pool per-step relaunch driver, which the run
// double-checks here (the service invariant: same bits whichever door a
// computation enters through). Exits 1 on a mismatch or a violated
// maximum principle.
#include <cstring>
#include <iostream>

#include "common/grid.hpp"
#include "core/iterate.hpp"
#include "core/server.hpp"
#include "gpusim/device.hpp"
#include "gpusim/timing.hpp"

int main() {
  using namespace ssam;
  const Index n = 192;
  const int steps = 400;

  // The diffusion stencil of Section 2.2 with convex coefficients.
  core::StencilShape<float> diffusion;
  diffusion.name = "2d5pt-diffusion";
  diffusion.dims = 2;
  diffusion.order = 1;
  diffusion.taps = {{0, 0, 0, 0.60f},   // Current
                    {-1, 0, 0, 0.10f},  // West
                    {1, 0, 0, 0.10f},   // East
                    {0, -1, 0, 0.10f},  // North
                    {0, 1, 0, 0.10f}};  // South

  // Hot square in a cold plate.
  Grid2D<float> a(n, n, 0.0f), b(n, n);
  for (Index y = n / 3; y < 2 * n / 3; ++y) {
    for (Index x = n / 3; x < 2 * n / 3; ++x) a.at(x, y) = 1.0f;
  }
  Grid2D<float> ref_a = a, ref_b = b;

  core::SimServer server;
  std::cout << "service config: " << server.config().describe() << "\n";
  core::JobHints hints;
  hints.policy = core::IterationPolicy::kPersistent;
  core::JobFuture fut =
      server.submit(core::SimJob::stencil2d(a, b, diffusion, steps, hints));
  const core::JobResult& jr = fut.wait();
  std::cout << "persistent run on device " << jr.device << ": " << jr.run.tiles
            << " resident tiles, " << jr.run.sweeps << " sweeps, queued "
            << jr.queue_ms << " ms, ran " << jr.exec_ms << " ms\n";
  server.drain();  // completion accounting runs just after the future resolves
  {
    sim::Device& dev = server.group().device(jr.device);
    auto& c = dev.counters();
    std::cout << "  " << dev.name() << ": " << c.sweeps.load() << " band sweeps, "
              << c.jobs_completed.load() << " jobs completed\n";
  }

  // The service must match the per-step relaunch driver bit for bit.
  core::iterate_stencil2d<float>(sim::tesla_v100(), ref_a, ref_b, diffusion, steps);
  const bool matches =
      0 == std::memcmp(a.data(), ref_a.data(), static_cast<std::size_t>(a.size()) * sizeof(float));
  std::cout << (matches ? "matches the per-step relaunch driver bit for bit\n"
                        : "MISMATCH vs the relaunch driver!\n");

  // Maximum principle: all temperatures within [0, 1].
  float lo = 1e9f, hi = -1e9f;
  for (Index i = 0; i < a.size(); ++i) {
    lo = std::min(lo, a.data()[i]);
    hi = std::max(hi, a.data()[i]);
  }
  const bool bounded = lo >= -1e-5f && hi <= 1.0f + 1e-5f;
  std::cout << "after " << steps << " steps: min=" << lo << " max=" << hi
            << (bounded ? "  (maximum principle holds)\n" : "  (VIOLATION!)\n");

  // ASCII rendering (24x48 downsample), normalized to the current peak.
  const char* shades = " .:-=+*#%@";
  const float norm = hi > 0 ? 1.0f / hi : 1.0f;
  for (int ty = 0; ty < 24; ++ty) {
    for (int tx = 0; tx < 48; ++tx) {
      const float v = a.at(tx * n / 48, ty * n / 24) * norm;
      const int s = std::max(0, std::min(9, static_cast<int>(v * 9.99f)));
      std::cout << shades[s];
    }
    std::cout << '\n';
  }

  // Per-step cost on both simulated GPUs.
  for (const sim::ArchSpec* arch : {&sim::tesla_p100(), &sim::tesla_v100()}) {
    auto it = core::iterate_stencil2d<float>(*arch, a, b, diffusion, 1, {},
                                             sim::ExecMode::kTiming);
    const auto est = sim::estimate_runtime(*arch, it.per_step);
    std::cout << arch->name << ": " << est.total_ms << " ms/step ("
              << static_cast<double>(n) * n / est.total_ms / 1e6 << " GCells/s)\n";
  }
  return matches && bounded ? 0 : 1;
}
