// Figure 6: temporal/spatial blocking comparison (GCells/s per time step).
//
// Benchmarks 2d5pt, 2d9pt, 3d7pt, 3d13pt, poisson on P100/V100 x FP32/FP64.
//   * StencilGen-like — overlapped temporal blocking in shared memory
//     (best fused depth t from a small tuning set, as StencilGen autotunes);
//   * SSAM — in-register temporal blocking for 2D (Section 6.4: SSAM
//     "enables temporal blocking without much change"); plain SSAM for 3D
//     (register pressure limits deep 3D fusion — the caveat the paper
//     itself notes for some cases);
//   * Diffusion — our 2.5D z-march implementation for 3d7pt, next to the
//     paper-quoted numbers (92.7/162.4 SP, 30.6/46.9 DP GCells/s);
//   * Bricks — paper-quoted constants only (library not public; the paper
//     could not run it on V100 either).
#include <iostream>
#include <map>

#include "baselines/stencil_temporal.hpp"
#include "baselines/stencil_tiled.hpp"
#include "bench_common.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil_suite.hpp"
#include "paperdata/paper_values.hpp"

namespace {

using namespace ssam;

const std::vector<std::string> kFig6Stencils = {"2d5pt", "2d9pt", "3d7pt", "3d13pt",
                                                "poisson"};

template <typename T>
double best_stencilgen(const sim::ArchSpec& arch, const core::StencilShape<T>& shape,
                       Grid2D<T>& in2, Grid2D<T>& out2, Grid3D<T>& in3, Grid3D<T>& out3) {
  const sim::SampleSpec sample{32, 4};
  double best = 0;
  if (shape.dims == 2) {
    const double cells = static_cast<double>(in2.width()) * in2.height();
    for (int t : {1, 2, 4, 6}) {
      if (t * shape.order * 2 >= 8) continue;  // halo must fit the 8-row tile
      auto st = base::stencil2d_temporal_smem<T>(arch, in2.cview(), shape, out2.view(),
                                                 base::TemporalOptions{t},
                                                 sim::ExecMode::kTiming, sample);
      best = std::max(best, bench::measure(arch, st, cells, t).gcells);
    }
  } else {
    const double cells = static_cast<double>(in3.nx()) * in3.ny() * in3.nz();
    for (int t : {1, 2}) {
      if (t * shape.order > 2) continue;  // 3D tile is 4 deep
      auto st = base::stencil3d_temporal_smem<T>(arch, in3.cview(), shape, out3.view(),
                                                 base::TemporalOptions{t},
                                                 sim::ExecMode::kTiming, sample);
      best = std::max(best, bench::measure(arch, st, cells, t).gcells);
    }
  }
  return best;
}

template <typename T>
double best_ssam(const sim::ArchSpec& arch, const core::StencilShape<T>& shape,
                 Grid2D<T>& in2, Grid2D<T>& out2, Grid3D<T>& in3, Grid3D<T>& out3) {
  const sim::SampleSpec sample{32, 4};
  double best = 0;
  if (shape.dims == 2) {
    const double cells = static_cast<double>(in2.width()) * in2.height();
    const int span = 2 * shape.order;
    for (int t : {1, 2, 3, 4, 6}) {
      if (sim::kWarpSize - t * span < 16) continue;  // keep >= half warp valid
      core::StencilOptions opt;
      opt.t = t;
      auto st = core::stencil2d_ssam<T>(arch, in2.cview(), shape, out2.view(), opt,
                                        sim::ExecMode::kTiming, sample);
      best = std::max(best, bench::measure(arch, st, cells, t).gcells);
    }
  } else {
    const double cells = static_cast<double>(in3.nx()) * in3.ny() * in3.nz();
    auto st = core::stencil3d_ssam<T>(arch, in3.cview(), shape, out3.view(), {},
                                      sim::ExecMode::kTiming, sample);
    best = bench::measure(arch, st, cells).gcells;
    // In-register 3D temporal blocking (register pressure limits the depth).
    for (int t : {2, 3}) {
      core::Stencil3DOptions opt;
      opt.t = t;
      opt.warps = 2 * t * shape.order + 6;
      if (opt.warps * sim::kWarpSize > 1024) continue;  // CUDA block limit
      if (sim::kWarpSize - t * 2 * shape.order < 16) continue;
      try {
        auto tt = core::stencil3d_ssam<T>(arch, in3.cview(), shape, out3.view(), opt,
                                          sim::ExecMode::kTiming, sample);
        best = std::max(best, bench::measure(arch, tt, cells, t).gcells);
      } catch (const ResourceError&) {
        // configuration exceeds this GPU's shared memory — skip, like a
        // launch-failure fallback in an autotuner
      }
    }
  }
  return best;
}

template <typename T>
void run_panel(const sim::ArchSpec& arch, const char* tag, bench::ShapeChecks& checks) {
  const bool fp32 = sizeof(T) == 4;
  print_banner(std::string("Figure 6") + tag + " (" + arch.name + ", " +
               (fp32 ? "single" : "double") + " precision): GCells/s per step");

  Grid2D<T> in2(core::kSuiteDomain2D, core::kSuiteDomain2D);
  Grid2D<T> out2(core::kSuiteDomain2D, core::kSuiteDomain2D);
  Grid3D<T> in3(core::kSuiteDomain3D, core::kSuiteDomain3D, core::kSuiteDomain3D);
  Grid3D<T> out3(core::kSuiteDomain3D, core::kSuiteDomain3D, core::kSuiteDomain3D);

  ConsoleTable t({"benchmark", "StencilGen", "SSAM", "Diffusion (ours)",
                  "Diffusion (paper)", "Bricks (paper)"});
  int ssam_wins = 0;
  const sim::SampleSpec sample{32, 4};
  for (const auto& name : kFig6Stencils) {
    const auto shape = core::suite_stencil<T>(name);
    const double sg = best_stencilgen<T>(arch, shape, in2, out2, in3, out3);
    const double sm = best_ssam<T>(arch, shape, in2, out2, in3, out3);
    if (sm >= sg) ++ssam_wins;

    std::string diff_ours = "-", diff_paper = "-", bricks = "-";
    if (name == "3d7pt") {
      auto zm = base::stencil3d_zmarch<T>(arch, in3.cview(), shape, out3.view(),
                                          sim::ExecMode::kTiming, sample);
      const double cells = static_cast<double>(in3.nx()) * in3.ny() * in3.nz();
      diff_ours = ConsoleTable::num(bench::measure(arch, zm, cells).gcells, 1);
      for (const auto& q : paper::quoted_temporal_results()) {
        if (q.system == std::string("Diffusion") && q.gpu == arch.name &&
            q.single_precision == fp32) {
          diff_paper = ConsoleTable::num(q.gcells_per_s, 1);
        }
      }
    }
    for (const auto& q : paper::quoted_temporal_results()) {
      if (q.system == std::string("Bricks") && q.gpu == arch.name &&
          q.single_precision == fp32) {
        bricks = ConsoleTable::num(q.gcells_per_s, 2) + " (overall)";
      }
    }
    t.add_row({name, ConsoleTable::num(sg, 1), ConsoleTable::num(sm, 1), diff_ours,
               diff_paper, bricks});
  }
  std::cout << t.str();
  std::cout << "SSAM wins " << ssam_wins << "/" << kFig6Stencils.size() << " vs StencilGen\n";
  checks.check(std::string(arch.name) + (fp32 ? " single" : " double") +
                   ": SSAM beats StencilGen on the majority (Section 6.4)",
               ssam_wins >= 3);
}

}  // namespace

int main() {
  using namespace ssam;
  bench::print_simulation_note();
  bench::ShapeChecks checks;
  run_panel<float>(sim::tesla_p100(), "a", checks);
  run_panel<double>(sim::tesla_p100(), "b", checks);
  run_panel<float>(sim::tesla_v100(), "c", checks);
  run_panel<double>(sim::tesla_v100(), "d", checks);
  checks.print();
  return checks.failures() == 0 ? 0 : 1;
}
