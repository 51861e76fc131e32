// 3D acoustic wave propagation with the 3d7pt stencil (the finite-difference
// workload of Section 6.3 / Micikevicius [36]): second-order wave equation
// with a point source, run with the SSAM 3D kernel.
//
//   p_next = 2*p - p_prev + c^2 * laplacian(p)
//
// The Laplacian is the SSAM part; the (2*p - p_prev) update is an
// element-wise pass. Energy must stay bounded under the CFL-stable setting.
//
// All time steps run on the persistent iteration engine
// (core/iterate_persistent.hpp), sharded across a virtual two-device group
// (core/shard.hpp): each device's pool slice owns a z-band shard, every
// plane band stays resident on its worker across every step, and the
// element-wise wave update runs as the engine's post hook on each band
// right after its Laplacian sweep, advancing p_prev (the aux field) in
// place over the band's planes —
// the halo channels (the inter-device seam included) then carry the
// *updated* pressure, so no step round-trips the pressure through the
// global arrays. Exits 1 when the run goes unstable.
#include <cmath>
#include <iostream>

#include "common/grid.hpp"
#include "core/iterate_persistent.hpp"
#include "core/shard.hpp"
#include "core/stencil3d.hpp"
#include "gpusim/device.hpp"
#include "gpusim/timing.hpp"

int main() {
  using namespace ssam;
  const Index n = 96;
  const int steps = 48;
  const float c2 = 0.16f;  // CFL-stable (<= 1/3 in 3D)

  core::StencilShape<float> laplace;
  laplace.name = "3d7pt-laplacian";
  laplace.dims = 3;
  laplace.order = 1;
  laplace.taps = {{0, 0, 0, -6.0f}, {1, 0, 0, 1.0f},  {-1, 0, 0, 1.0f},
                  {0, 1, 0, 1.0f},  {0, -1, 0, 1.0f}, {0, 0, 1, 1.0f},
                  {0, 0, -1, 1.0f}};

  Grid3D<float> p(n, n, n, 0.0f), scratch(n, n, n), p_prev(n, n, n, 0.0f);
  // Point source in the center (a Ricker-ish impulse).
  p.at(n / 2, n / 2, n / 2) = 1.0f;
  p_prev.at(n / 2, n / 2, n / 2) = 0.9f;

  // Element-wise wave update over each band: the sweep left
  // c^2-unscaled Laplacian values in `next`; combine with the current and
  // previous pressure and advance the aux field.
  auto wave_update = [c2](GridView3D<float> next, GridView3D<const float> cur,
                          GridView3D<float> prev) {
    for (Index z = 0; z < next.nz(); ++z) {
      for (Index y = 0; y < next.ny(); ++y) {
        for (Index x = 0; x < next.nx(); ++x) {
          const float lap = next.at(x, y, z);
          const float pv = cur.at(x, y, z);
          next.at(x, y, z) = 2.0f * pv - prev.at(x, y, z) + c2 * lap;
          prev.at(x, y, z) = pv;
        }
      }
    }
  };
  core::PersistentOptions opt;
  opt.shard = core::ShardPolicy::sharded(2);
  const auto run = core::iterate_stencil3d_persistent<float>(
      sim::tesla_v100(), p, scratch, laplace, steps, opt, wave_update, &p_prev);
  std::cout << "persistent run: " << run.tiles << " resident tiles on " << run.devices
            << " virtual devices, " << run.sweeps
            << " steps (p_prev updated in place as the aux field)\n";

  // Wavefront radius after `steps` steps ~ steps * sqrt(c2) cells.
  double energy = 0;
  Index front = 0;
  for (Index x = n / 2; x < n; ++x) {
    if (std::abs(p.at(x, n / 2, n / 2)) > 1e-4f) front = x - n / 2;
  }
  for (Index i = 0; i < p.size(); ++i) {
    energy += static_cast<double>(p.data()[i]) * p.data()[i];
  }
  std::cout << "after " << steps << " steps: wavefront radius ~ " << front
            << " cells (expected <= " << steps << "), energy = " << energy << "\n";
  const bool stable = std::isfinite(energy) && energy < 1e6;
  std::cout << (stable ? "stable (CFL respected)\n" : "UNSTABLE!\n");

  // Per-step Laplacian cost on the simulated GPUs at the paper's 512^3 size.
  const auto plan = core::build_plan(laplace.taps);
  Grid3D<float> big_in(512, 512, 512), big_out(512, 512, 512);
  for (const sim::ArchSpec* arch : {&sim::tesla_p100(), &sim::tesla_v100()}) {
    auto st = core::stencil3d_ssam<float>(*arch, big_in.cview(), plan, big_out.view(), {},
                                          sim::ExecMode::kTiming);
    const auto est = sim::estimate_runtime(*arch, st);
    std::cout << arch->name << " (512^3): " << est.total_ms << " ms/step, "
              << 512.0 * 512 * 512 / est.total_ms / 1e6 << " GCells/s\n";
  }
  return stable ? 0 : 1;
}
