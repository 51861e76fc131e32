// Subsystem 9: the auto-scheduler — schedule-as-data over the bit-safe knobs.
//
// Every execution knob the stack grew (IterationPolicy, tile count, temporal
// depth t, sliding-window p, block width) was still hand-picked per example.
// This layer picks the two that cannot change a result — iteration policy
// and resident tile count — with the paper's latency model
// (perfmodel/latency_model.hpp, Eq. 4): the pick is the argmin of a cost
// model over {relaunch} ∪ {persistent × tiles {0, w, 2w, 4w, 8w}}, where w
// is the lane width the job will run on. The model alone decides: there is
// no measurement, no calibration, no file and no RNG, so the same job on the
// same lane width always gets the same schedule.
//
// Policy and tiles are proven output-invariant by the differential suites
// (persistent-vs-relaunch, chain). Temporal depth `t` changes floating-point
// association order — it is data of the request, never searched. Same for
// p/block_threads. Consequence: a tuned run is bit-identical to the default
// run of the same job, which is what lets `JobHints::auto_tune` default-off
// jobs and tuned jobs share one differential test.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/job.hpp"
#include "gpusim/arch.hpp"

namespace ssam::core {

/// The searched knobs of an execution schedule, as plain data.
struct Schedule {
  IterationPolicy policy = IterationPolicy::kAuto;
  int tiles = 0;  ///< persistent band tiles (0: auto_tiles_for)

  /// One deterministic line, e.g. "policy=persistent tiles=8".
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] bool operator==(const Schedule& o) const {
    return policy == o.policy && tiles == o.tiles;
  }
};

/// No options remain; kept for resolve_cache_path's signature, which
/// perfbench/src/serve_mixed.cpp calls.
struct TunerOptions {};

/// perfbench/src/serve_mixed.cpp reads `measurements`; the tuner never
/// measures, so it is always 0.
struct TuneStats {
  std::uint64_t measurements = 0;
};

/// The model-decided tuner. Stateless, hence thread-safe.
class AutoTuner {
 public:
  /// The instance perfbench/src/serve_mixed.cpp resolves through.
  static AutoTuner& global();

  /// The schedule for `job`: the hinted policy/tiles for untunable kinds,
  /// else the model's argmin at the lane width of `device`'s pool (null:
  /// the global pool's). Pure: no clock, no file, no RNG.
  [[nodiscard]] static Schedule resolve(const sim::ArchSpec& arch, const SimJob& job,
                                        sim::Device* device = nullptr);

  /// True for kinds with bit-safe schedule knobs (stencil2d/3d, chain).
  /// Conv2d is a single launch — nothing to schedule.
  [[nodiscard]] static bool tunable(JobKind kind);

  /// Always empty; perfbench/src/serve_mixed.cpp reads it.
  [[nodiscard]] static TuneStats stats() { return {}; }

  /// No-op; perfbench/src/serve_mixed.cpp calls it before its cold tunes.
  static void reload() {}

  /// Always "" (nothing is persisted); perfbench/src/serve_mixed.cpp calls it.
  [[nodiscard]] static std::string resolve_cache_path(const TunerOptions&) { return ""; }
};

}  // namespace ssam::core
