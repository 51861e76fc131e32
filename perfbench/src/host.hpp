// The host a result was measured on: cores, last-level cache, SIMD
// backend, compiler and flags, CPU governor when readable.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

/// Last-level cache bytes (sysconf, else sysfs), 0 when unknown.
[[nodiscard]] std::size_t llc_bytes();

/// Cumulative host CPU ticks from /proc/stat: all, and stolen by the
/// hypervisor. Zero when unreadable.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// The host descriptor as a JSON object; `busy_threads` is the workload's.
[[nodiscard]] std::string host_json(int busy_threads);

}  // namespace perfbench
