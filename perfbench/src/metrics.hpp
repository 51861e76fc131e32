// The metric names the benchmark reports, with units and direction. These
// lists and BENCHMARK.json must agree; `run.py --selftest` checks it.
#pragma once

#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};

/// Printed by every untraced run, for every workload.
[[nodiscard]] inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"cells_per_s", "cells/s", "higher"},
      {"jobs_per_s", "1/s", "higher"},
      {"sojourn_p50_ms", "ms", "lower"},
      {"sojourn_p99_ms", "ms", "lower"},
      {"sim_gcells_geomean", "GCells/s", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return m;
}

/// Printed by every traced run, for every workload.
[[nodiscard]] inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = {
      {"job.ms.stencil2d", "ms", "lower"},
      {"job.ms.stencil3d", "ms", "lower"},
      {"job.ms.chain", "ms", "lower"},
      {"job.ms.sharded2d", "ms", "lower"},
      {"kernel.sweep_ms.2d9pt", "ms", "lower"},
      {"kernel.sweep_ms.3d7pt", "ms", "lower"},
      {"kernel.sweep_ms.2d5pt", "ms", "lower"},
      {"engine.self_frac.2d", "fraction", "lower"},
      {"engine.self_frac.3d", "fraction", "lower"},
      {"engine.self_frac.chain", "fraction", "lower"},
      {"engine.self_frac.sharded", "fraction", "lower"},
      {"mem.stream_gbps", "GB/s", "higher"},
      {"kernel.bw_frac.2d", "fraction", "higher"},
      {"kernel.bw_frac.3d", "fraction", "higher"},
      {"scaling.eff.2d", "fraction", "higher"},
      {"device.halo_bytes_per_sweep", "bytes", "lower"},
      {"device.seam_bytes_per_sweep", "bytes", "lower"},
      {"job.tiles.2d", "count", "higher"},
      {"job.tiles.3d", "count", "higher"},
      {"job.tiles.chain", "count", "higher"},
      {"host.cpu_s_per_gcell", "s/GCell", "lower"},
      {"server.submit_us.p50", "us", "lower"},
      {"server.submit_us.p99", "us", "lower"},
      {"server.queue_ms.p50", "ms", "lower"},
      {"server.queue_ms.p99", "ms", "lower"},
      {"server.exec_ms_p50.stencil2d", "ms", "lower"},
      {"server.exec_ms_p50.stencil3d", "ms", "lower"},
      {"server.exec_ms_p50.conv2d", "ms", "lower"},
      {"server.exec_ms_p50.chain", "ms", "lower"},
      {"server.device_busy_frac", "fraction", "lower"},
      {"server.workspaces_created", "count", "lower"},
      {"server.rejected", "count", "lower"},
      {"server.failed", "count", "lower"},
      {"server.retries", "count", "lower"},
      {"autotune.resolve_us", "us", "lower"},
      {"autotune.warm_measurements", "count", "lower"},
      {"gen.late_ms_p99", "ms", "lower"},
      {"timing.launch_ms.stencil2d", "ms", "lower"},
      {"timing.launch_ms.stencil3d", "ms", "lower"},
      {"timing.launch_ms.conv2d", "ms", "lower"},
      {"timing.estimate_us", "us", "lower"},
      {"sim.shfl_per_cell", "warp_ops/cell", "lower"},
      {"sim.dram_bytes_per_cell", "bytes/cell", "lower"},
      {"sim.l2_hit_frac", "fraction", "higher"},
      {"sim.cycles_per_block", "cycles", "lower"},
      {"sim.gcells.2d_star", "GCells/s", "higher"},
      {"sim.gcells.2d_box", "GCells/s", "higher"},
      {"sim.gcells.3d", "GCells/s", "higher"},
      {"sim.gcells.conv", "GCells/s", "higher"},
      {"suite_p10_ms", "ms", "lower"},
      {"trace_overhead_frac", "fraction", "lower"},
  };
  return m;
}

}  // namespace perfbench
