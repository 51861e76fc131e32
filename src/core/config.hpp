// Process-wide simulation configuration, resolved in exactly one place.
//
// Every `SSAM_*` environment knob used to be read by whichever layer needed
// it (`SSAM_THREADS` in the thread pool, `SSAM_DEVICES` / `SSAM_DEVICE_PIN`
// in the device layer), which made "what is this process actually running
// with?" unanswerable without grepping. `SimConfig` collapses those knobs
// into one struct: `config_from_env()` performs all the getenv calls, and
// `config()` caches the result at first use — the lower layers
// (common/thread_pool.cpp, gpusim/device.cpp) consult the cached value for
// their defaults instead of reading the environment themselves. The
// SimServer (core/server.hpp) resolves its SimConfig once at construction
// and `describe()` renders the resolved knobs as one debuggable line.
//
// This header is deliberately dependency-free (environment + simd backend
// name only) so that lower layers can include it for their defaults without
// an include cycle; it owns no execution machinery.
#pragma once

#include <string>

namespace ssam::core {

/// How an iterative run executes. kRelaunch is the per-step path of
/// core/iterate.hpp; kPersistent is the resident-tile engine of
/// core/iterate_persistent.hpp; kAuto picks persistent for functional runs
/// long enough to amortize tile setup.
enum class IterationPolicy { kAuto, kRelaunch, kPersistent };

/// The resolved process configuration: every `SSAM_*` default in one
/// printable struct.
struct SimConfig {
  int threads = 1;        ///< host worker count (SSAM_THREADS, else hardware)
  int devices = 2;        ///< default virtual-device count (SSAM_DEVICES)
  bool device_pin = false;  ///< pin device workers to cores (SSAM_DEVICE_PIN)
  IterationPolicy policy = IterationPolicy::kAuto;  ///< default iteration policy
  const char* simd_backend = "";  ///< compiled SIMD lane backend (report only)
  /// Fault-injection plan spec (SSAM_FAULT_SPEC, empty: no injection).
  /// Parsed and armed by core::FaultInjector::global() at first use — the
  /// config layer only transports the string (core/faultinject.hpp owns the
  /// mini-language).
  std::string fault_spec;

  /// One line naming every resolved knob, e.g.
  /// "threads=4 devices=2 pin=off policy=auto simd=avx2 faults=off".
  [[nodiscard]] std::string describe() const;
};

/// Re-reads the environment and returns a freshly resolved SimConfig. All
/// `SSAM_*` getenv calls in the library live behind this function. Integer
/// knobs (SSAM_THREADS, SSAM_DEVICES) are parsed strictly: a malformed or
/// non-positive value throws PreconditionError naming the variable, like
/// the SSAM_FAULT_SPEC grammar — never a silent fallback.
/// The SSAM_DEVICE_PIN flag accepts `0` or `1` and throws on anything else.
/// An empty value means unset for every knob.
[[nodiscard]] SimConfig config_from_env();

/// The process-wide configuration, resolved from the environment once at
/// first call and cached (environment changes after that are ignored, like
/// a process opening its GPUs once).
[[nodiscard]] const SimConfig& config();

}  // namespace ssam::core
