// Quickstart: convolve an image through the simulation service in ~20 lines.
//
//   1. build a grid, 2. describe the request as a `SimJob`, 3. submit it to
// a `SimServer` and wait the future — the service schedules it onto a
// virtual device and computes the full output on the simulated GPU. The
// result is bit-identical to calling `core::run_job` (or the underlying
// kernel) directly. Timing mode stays a direct kernel call: it estimates
// what the kernel would cost on a real P100/V100.
#include <iostream>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/autotune.hpp"
#include "core/conv2d.hpp"
#include "core/server.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/timing.hpp"

int main() {
  using namespace ssam;

  // A 512x512 image and a 5x5 sharpening-ish filter.
  Grid2D<float> image(512, 512);
  fill_random(image, /*seed=*/1, 0.0, 1.0);
  std::vector<float> filter(25, -0.04f);
  filter[12] = 2.0f;  // center tap

  // Functional run through the service: every output computed, borders
  // replicate. The server resolves its config (threads, devices) from the
  // environment — `server.config().describe()` shows what it picked.
  Grid2D<float> output(512, 512);
  core::SimServer server;
  std::cout << "service config: " << server.config().describe() << "\n";
  core::JobFuture fut =
      server.submit(core::SimJob::conv2d(image, output, filter, 5, 5));
  const core::JobResult& r = fut.wait();

  double checksum = 0;
  for (Index i = 0; i < output.size(); ++i) checksum += output.data()[i];
  std::cout << "SSAM 5x5 convolution done on device " << r.device << " in "
            << r.exec_ms << " ms; checksum = " << checksum << "\n";

  // Autotuned iterative run: `JobHints::auto_tune` picks the schedule
  // (iteration policy, resident tiles) with the paper's latency model — no
  // measurement, no cache file — and the tuned output is bit-identical to
  // the default schedule's, because only bit-safe knobs are tuned.
  Grid2D<float> heat(512, 512), scratch(512, 512);
  fill_random(heat, /*seed=*/2, 0.0, 1.0);
  core::JobHints hints;
  hints.auto_tune = true;
  core::SimJob tuned_job =
      core::SimJob::stencil2d(heat, scratch, core::star2d<float>(1), 16, hints);
  const core::Schedule tuned = core::AutoTuner::resolve(sim::tesla_v100(), tuned_job);
  (void)core::run_job(sim::tesla_v100(), tuned_job);
  std::cout << "autotuned 16-step star-1 stencil: schedule [" << tuned.describe() << "]\n";

  // Timing run: sampled blocks + scoreboard -> estimated V100 runtime.
  auto stats = core::conv2d_ssam<float>(sim::tesla_v100(), image.cview(), filter, 5, 5,
                                        output.view(), {}, sim::ExecMode::kTiming);
  const auto est = sim::estimate_runtime(sim::tesla_v100(), stats);
  std::cout << "estimated V100 runtime: " << est.total_ms << " ms (" << est.bound
            << "-bound), occupancy " << est.occupancy.fraction * 100 << "%, "
            << stats.totals.shfl_ops << " shuffles, " << stats.totals.fp_ops
            << " FP warp-ops\n";
  return 0;
}
