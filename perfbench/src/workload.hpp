// The benchmark's workloads behind one interface, so main() can set
// each up several times, measure it untraced and traced, and probe single
// layers in a traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 1;
  int nproc = 1;  ///< host cores; busy threads never exceed it
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads this workload keeps busy at once (recorded with the host).
  [[nodiscard]] virtual int busy_threads() const = 0;

  /// Set-ups in one untraced run; set-up time is their median. Fewer for a
  /// workload whose set-up takes a large share of the run.
  [[nodiscard]] virtual int setups() const { return 5; }

  /// Builds inputs, oracles and warm state from the seed, dropping any
  /// previous state first. Everything here counts as set-up time.
  virtual void setup() = 0;

  /// Runs the workload for about `seconds`, adding to the samples gathered
  /// since the last finish() (a run may measure after each of several
  /// set-ups). With a tracer it also records spans.
  virtual void measure(double seconds, Tracer* tracer) = 0;

  /// Turns the gathered samples into end-to-end and per-layer metrics and
  /// operation counts (mismatches count as failures), and clears them.
  virtual void finish(Result& out) = 0;

  /// Traced runs only: standalone measurements of single layers that the
  /// workload itself cannot separate (run after finish()).
  virtual void probe_layers(Tracer* tracer, Result& out) = 0;

  /// Frees all state.
  virtual void teardown() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_iter_dram(const RunContext& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_serve_mixed(const RunContext& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_serve_light(const RunContext& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_paper_suite(const RunContext& ctx);

/// Deterministic input fill of `n` floats in [-1, 1).
void fill_seeded(float* p, std::size_t n, std::uint64_t seed);

/// Copy and hash of large float arrays, split into fixed chunks across the
/// global pool (the hash combines chunk hashes in order, so it does not
/// depend on the pool size).
void parallel_copy(float* dst, const float* src, std::size_t n);
[[nodiscard]] std::uint64_t parallel_hash(const float* p, std::size_t n);

template <typename G>
[[nodiscard]] std::uint64_t grid_hash(const G& g) {
  return parallel_hash(g.data(), static_cast<std::size_t>(g.size()));
}

template <typename G>
void grid_copy(G& dst, const G& src) {
  parallel_copy(dst.data(), src.data(), static_cast<std::size_t>(src.size()));
}

}  // namespace perfbench
