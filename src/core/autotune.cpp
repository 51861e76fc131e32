#include "core/autotune.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "perfmodel/latency_model.hpp"

namespace ssam::core {

namespace {

// Overhead constants, in model units (one unit ~= one simulated cycle of
// one lane). They only need to be the right order of magnitude: they set
// where the model trades relaunch fork/joins against resident-tile setup.
constexpr double kLaunchUnits = 5.0e5;     ///< one relaunch fork/join
constexpr double kTileSetupUnits = 2.0e5;  ///< one resident tile's setup

const char* policy_name(IterationPolicy p) {
  switch (p) {
    case IterationPolicy::kAuto: return "auto";
    case IterationPolicy::kRelaunch: return "relaunch";
    case IterationPolicy::kPersistent: return "persistent";
  }
  return "?";
}

/// Band-axis unit count and bytes per unit — what auto_tiles_for sizes
/// residence buffers against.
void band_geometry(const SimJob& job, Index& units, std::size_t& unit_bytes) {
  if (job.kind == JobKind::kStencil3D && job.a3 != nullptr) {
    units = job.a3->nz();
    unit_bytes = static_cast<std::size_t>(job.a3->nx()) *
                 static_cast<std::size_t>(job.a3->ny()) * sizeof(float);
    return;
  }
  if (job.a2 != nullptr) {
    units = job.a2->height();
    unit_bytes = static_cast<std::size_t>(job.a2->width()) * sizeof(float);
    return;
  }
  units = 1;
  unit_bytes = sizeof(float);
}

/// Model-unit cost of the full job under `s` on `workers` lanes (lower is
/// better): the job's compute units, coalesced global traffic, halo traffic
/// and launch/tile overheads, divided by the parallelism the schedule can
/// use.
double predict_units(const SimJob& job, const Schedule& s, int workers,
                     const perf::MicroLatencies& lat) {
  const double cells = static_cast<double>(job.cells());
  const double sweeps = static_cast<double>(std::max(1, job.steps));
  const double compute = model_units(job, lat);

  // Coalesced global traffic: one warp-wide load amortizes t_gmem_read over
  // the lane count.
  const double gmem_per_elem = lat.t_gmem_read / sim::kWarpSize;
  Index band_units = 1;
  std::size_t unit_bytes = sizeof(float);
  band_geometry(job, band_units, unit_bytes);
  const double elems_per_unit =
      cells / std::max(1.0, static_cast<double>(band_units));

  const bool persistent =
      detail::choose_persistent(s.policy, std::max(1, job.steps));
  int tiles = s.tiles;
  if (persistent && tiles <= 0) {
    tiles = detail::auto_tiles_for(workers, band_units, unit_bytes);
  }
  tiles = std::max(1, std::min<int>(tiles, static_cast<int>(band_units)));

  const detail::TapFootprint f =
      detail::footprint_of(job.shape, job.kind == JobKind::kStencil3D);
  const double halo_units_per_tile = 2.0 * f.rows * std::max(1, job.hints.t);

  double memory = 0.0;
  double overhead = 0.0;
  if (persistent) {
    // Tiles load once and store once; each sweep moves only halo boundaries
    // through the epoch-counted channels.
    memory = 2.0 * cells * gmem_per_elem;
    memory += sweeps * tiles * halo_units_per_tile * elems_per_unit * gmem_per_elem;
    overhead = kTileSetupUnits * tiles;
  } else {
    memory = 2.0 * cells * gmem_per_elem * sweeps;
    overhead = kLaunchUnits * sweeps;
  }

  // Parallel speedup is capped by the work grain: persistent runs cannot use
  // more workers than tiles; relaunch grids have ample blocks.
  const int grain = persistent ? tiles : workers;
  const double eff = static_cast<double>(std::min(workers, std::max(1, grain)));
  return (compute + memory) / eff + overhead;
}

}  // namespace

std::string Schedule::describe() const {
  return std::string("policy=") + policy_name(policy) + " tiles=" + std::to_string(tiles);
}

AutoTuner& AutoTuner::global() {
  static AutoTuner tuner;
  return tuner;
}

bool AutoTuner::tunable(JobKind kind) {
  switch (kind) {
    case JobKind::kStencil2D:
    case JobKind::kStencil3D:
    case JobKind::kChain:
      return true;
    case JobKind::kConv2D:
      return false;  // one launch, no bit-safe schedule knobs
  }
  return false;
}

Schedule AutoTuner::resolve(const sim::ArchSpec& arch, const SimJob& job,
                            sim::Device* device) {
  Schedule best{job.hints.policy, job.hints.tiles};
  if (!tunable(job.kind)) return best;
  const int w = std::max(1, device != nullptr ? device->pool().size()
                                              : ThreadPool::global().size());
  const perf::MicroLatencies lat = perf::from_arch(arch);

  // Candidates in a fixed order; a strict `<` keeps the earliest of equal
  // costs, so the pick is deterministic.
  best = Schedule{IterationPolicy::kRelaunch, 0};
  double best_units = predict_units(job, best, w, lat);
  for (const int tiles : {0, w, 2 * w, 4 * w, 8 * w}) {
    const Schedule s{IterationPolicy::kPersistent, tiles};
    const double units = predict_units(job, s, w, lat);
    if (units < best_units) {
      best = s;
      best_units = units;
    }
  }
  return best;
}

void autotune_apply(const sim::ArchSpec& arch, const SimJob& job,
                    sim::Device* device, PersistentOptions& popt) {
  const Schedule s = AutoTuner::resolve(arch, job, device);
  popt.policy = s.policy;
  popt.tiles = s.tiles;
}

}  // namespace ssam::core
