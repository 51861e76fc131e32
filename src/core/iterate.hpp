// Iterative stencil driver (double-buffered time stepping by relaunch).
//
// The per-step state (validated setup, column-pass schedule, kernel bodies)
// is hoisted out of the step loop: one ping body (a -> b) and one pong body
// (b -> a) are built per call and reused for every step, so a long run —
// or a benchmark calling the driver repeatedly — performs no per-step plan
// copies or allocator traffic. It is the relaunch oracle the tests and the
// heat-diffusion example check the band engine against.
//
// For runs long enough to amortize tile setup, the persistent engine
// (core/iterate_persistent.hpp) replaces the per-step relaunch entirely:
// tiles stay resident on their workers and exchange halos directly; it
// also drives 3D iteration.
#pragma once

#include <utility>

#include "core/stencil2d.hpp"

namespace ssam::core {

/// Result of an iterative run: per-step stats (uniform across steps for the
/// non-temporally-blocked kernels) and the step count.
struct IterationStats {
  KernelStats per_step;
  int steps = 0;
};

/// Runs `steps` SSAM stencil sweeps A->B, swapping buffers; the final state
/// ends in `a`. In timing mode only the first step is timed (steps are
/// identical for out-of-place sweeps).
template <typename T>
IterationStats iterate_stencil2d(const sim::ArchSpec& arch, Grid2D<T>& a, Grid2D<T>& b,
                                 const StencilShape<T>& shape, int steps,
                                 const StencilOptions& opt = {},
                                 ExecMode mode = ExecMode::kFunctional,
                                 SampleSpec sample = {}) {
  IterationStats r;
  r.steps = steps;
  const SystolicPlan<T> plan = build_plan(shape.taps);
  if (mode == ExecMode::kTiming) {
    r.per_step = stencil2d_ssam<T>(arch, a.cview(), plan, b.view(), opt, mode, sample);
    return r;
  }
  const detail::Stencil2dSetup s = detail::stencil2d_setup(a.cview(), plan, opt);
  auto ping = detail::make_stencil2d_body<T>(s, a.cview(), plan.passes.front(), b.view());
  auto pong = detail::make_stencil2d_body<T>(s, b.cview(), plan.passes.front(), a.view());
  for (int step = 0; step < steps; ++step) {
    r.per_step = (step % 2 == 0) ? sim::launch(arch, s.cfg, ping, mode, sample)
                                 : sim::launch(arch, s.cfg, pong, mode, sample);
  }
  if (steps % 2 == 1) std::swap(a, b);  // final state ends in `a`, as before
  return r;
}

}  // namespace ssam::core
