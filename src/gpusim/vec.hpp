// Warp-wide values and their element-wise lane primitives.
//
// The simulator executes device code warp-synchronously: one `Reg<T>` holds
// the value of a virtual register across all 32 lanes of a warp, plus the
// simulated cycle at which the value becomes available (set by the
// scoreboard). This is the "software systolic array" substrate of the paper:
// the PEs of Figure 1d are exactly these per-lane register slots.
//
// All lane arithmetic lives here as `Vec<T>` primitives, each a one-line
// dispatch into the explicit SIMD lane engine (gpusim/simd/): arithmetic and
// mad chains run as wide ops over the 32 contiguous lanes, the four
// CUDA-semantics shuffles run as in-register permutes on backends that have
// them, and non-coalesced gathers run as window permutes on AVX-512 (see
// simd/simd.hpp for backend selection). Every backend reproduces
// the portable reference loops bit-for-bit, so functional results do not
// depend on the backend — only throughput does.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/types.hpp"
#include "gpusim/simd/simd.hpp"

namespace ssam::sim {

inline constexpr int kWarpSize = 32;
static_assert(kWarpSize == simd::kSimdLanes, "lane engine width is one warp");

/// Full-warp participation mask, as in `__shfl_up_sync(0xffffffff, ...)`.
inline constexpr std::uint32_t kFullMask = 0xffffffffu;

/// Plain 32-lane SIMD value (no timing attached). The static members are the
/// element-wise primitives every warp operation is built from; each
/// dispatches to the active simd::LaneOps backend over the 32 contiguous
/// lanes.
template <typename T>
struct Vec {
  using Ops = simd::LaneOps<T>;

  // Intentionally not initialized: a Vec is a register file row, and the
  // primitives below always write all 32 lanes before anything reads them.
  // Keeping the type trivially default-constructible means the fixed-capacity
  // accumulator arrays of the kernels cost zero cycles to construct.
  // 64-byte alignment keeps each vector-register-sized slice of the lanes
  // inside one cache line, so the wide backends never split a load.
  alignas(64) std::array<T, kWarpSize> lane;

  [[nodiscard]] T& operator[](int i) { return lane[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const T& operator[](int i) const { return lane[static_cast<std::size_t>(i)]; }

  [[nodiscard]] T* data() { return lane.data(); }
  [[nodiscard]] const T* data() const { return lane.data(); }

  [[nodiscard]] static Vec splat(T v) {
    Vec r;
    Ops::splat(r.data(), v);
    return r;
  }

  [[nodiscard]] static Vec iota(T base = T{0}, T step = T{1}) {
    Vec r;
    Ops::iota(r.data(), base, step);
    return r;
  }

  // ------------------------------------------------------------- arithmetic

  [[nodiscard]] static Vec mad(const Vec& a, const Vec& b, const Vec& c) {
    Vec r;
    Ops::mad(r.data(), a.data(), b.data(), c.data());
    return r;
  }

  [[nodiscard]] static Vec mad(const Vec& a, T b, const Vec& c) {
    Vec r;
    Ops::mad_s(r.data(), a.data(), b, c.data());
    return r;
  }

  [[nodiscard]] static Vec add(const Vec& a, const Vec& b) {
    Vec r;
    Ops::add(r.data(), a.data(), b.data());
    return r;
  }

  [[nodiscard]] static Vec add(const Vec& a, T b) {
    Vec r;
    Ops::add_s(r.data(), a.data(), b);
    return r;
  }

  [[nodiscard]] static Vec sub(const Vec& a, const Vec& b) {
    Vec r;
    Ops::sub(r.data(), a.data(), b.data());
    return r;
  }

  [[nodiscard]] static Vec mul(const Vec& a, const Vec& b) {
    Vec r;
    Ops::mul(r.data(), a.data(), b.data());
    return r;
  }

  [[nodiscard]] static Vec mul(const Vec& a, T b) {
    Vec r;
    Ops::mul_s(r.data(), a.data(), b);
    return r;
  }

  /// x*scale + offset with scalar coefficients (one integer MAD on device).
  /// scale == 1 (the ubiquitous row-base addressing case) skips the multiply.
  [[nodiscard]] static Vec affine(const Vec& x, T scale, T offset) {
    if (scale == T{1}) return add(x, offset);
    Vec r;
    Ops::affine(r.data(), x.data(), scale, offset);
    return r;
  }

  [[nodiscard]] static Vec clamp(const Vec& x, T lo, T hi) {
    Vec r;
    Ops::clamp(r.data(), x.data(), lo, hi);
    return r;
  }

  // -------------------------------------------------------------- predicates

  [[nodiscard]] static Vec<int> ge(const Vec& a, T b) {
    Vec<int> r;
    Ops::ge_s(r.data(), a.data(), b);
    return r;
  }

  [[nodiscard]] static Vec<int> lt(const Vec& a, T b) {
    Vec<int> r;
    Ops::lt_s(r.data(), a.data(), b);
    return r;
  }

  [[nodiscard]] static Vec<int> logical_and(const Vec<int>& a, const Vec<int>& b) {
    Vec<int> r;
    simd::LaneOps<int>::logical_and(r.data(), a.data(), b.data());
    return r;
  }

  /// r = pred ? a : b (SEL instruction).
  [[nodiscard]] static Vec select(const Vec<int>& pred, const Vec& a, const Vec& b) {
    Vec r;
    Ops::select(r.data(), pred.data(), a.data(), b.data());
    return r;
  }

  // ---------------------------------------------------------------- shuffles
  //
  // CUDA __shfl_*_sync semantics with a full mask: a lane whose source falls
  // outside the warp keeps its own value. On AVX-512/AVX2 these are true
  // register permutes (vpermt2d / vpermd); elsewhere the reference path's
  // fixed-size overlapping copies compile to straight vector moves.

  /// __shfl_up_sync: lane l receives lane l-delta; lanes < delta keep their
  /// own value (the delta == 1 case is the partial-sum shift of every
  /// systolic sweep).
  [[nodiscard]] static Vec shift_up(const Vec& a, int delta) {
    if (delta <= 0) return a;
    if (delta > kWarpSize) delta = kWarpSize;
    Vec r;
    Ops::shift_up(r.data(), a.data(), delta);
    return r;
  }

  /// __shfl_down_sync: lane l receives lane l+delta; top lanes keep their own.
  [[nodiscard]] static Vec shift_down(const Vec& a, int delta) {
    if (delta <= 0) return a;
    if (delta > kWarpSize) delta = kWarpSize;
    Vec r;
    Ops::shift_down(r.data(), a.data(), delta);
    return r;
  }

  /// __shfl_sync with a uniform source lane (broadcast; wraps modulo warp).
  [[nodiscard]] static Vec broadcast(const Vec& a, int src_lane) {
    return splat(a.lane[static_cast<std::size_t>(src_lane & (kWarpSize - 1))]);
  }

  /// __shfl_xor_sync (butterfly exchange); only the lane bits participate.
  [[nodiscard]] static Vec butterfly(const Vec& a, int lane_mask) {
    Vec r;
    Ops::butterfly(r.data(), a.data(), lane_mask & (kWarpSize - 1));
    return r;
  }

  // ------------------------------------------------------------ gather/scatter

  /// True when idx is the unit-stride ramp idx[0], idx[0]+1, ... — the fully
  /// coalesced pattern almost every SSAM access produces.
  template <typename I>
  [[nodiscard]] static bool unit_stride(const Vec<I>& idx) {
    return simd::LaneOps<I>::unit_stride(idx.data());
  }

  /// r[l] = base[idx[l]]. Tiers: a unit-stride ramp is one block copy here;
  /// every other shape goes to the backend's gather (see simd/simd.hpp).
  template <typename I>
  [[nodiscard]] static Vec gather(const T* base, const Vec<I>& idx) {
    Vec r;
    if (unit_stride(idx)) {  // coalesced: one 128-byte block copy
      std::memcpy(r.lane.data(), base + idx.lane[0], sizeof(r.lane));
      return r;
    }
    Ops::gather(r.data(), base, idx.data());
    return r;
  }

  /// Masked gather; inactive lanes receive T{} (matching the documented
  /// load semantics kernels rely on, e.g. masked scan inputs) and their
  /// indices are never dereferenced. Interior warps pass an all-true
  /// predicate, which rejoins the coalesced path.
  template <typename I>
  [[nodiscard]] static Vec gather_if(const T* base, const Vec<I>& idx, const Vec<int>& active) {
    if (simd::LaneOps<int>::all_nonzero(active.data())) return gather(base, idx);
    Vec r;
    Ops::gather_if(r.data(), base, idx.data(), active.data());
    return r;
  }

  template <typename I>
  static void scatter(T* base, const Vec<I>& idx, const Vec& v) {
    if (unit_stride(idx)) {  // coalesced: one 128-byte block copy
      std::memcpy(base + idx.lane[0], v.lane.data(), sizeof(v.lane));
      return;
    }
    for (int l = 0; l < kWarpSize; ++l) base[idx.lane[l]] = v.lane[l];
  }

  /// Masked scatter: base[idx[l]] = v[l] for active lanes only. Over a
  /// unit-stride ramp (a border row) the lanes store to distinct consecutive
  /// elements, so the loop compiles to masked vector stores where the ISA
  /// has them; it forms no address from an inactive lane.
  template <typename I>
  static void scatter_if(T* base, const Vec<I>& idx, const Vec& v, const Vec<int>& active) {
    if (simd::LaneOps<int>::all_nonzero(active.data())) {
      scatter(base, idx, v);
      return;
    }
    if (unit_stride(idx)) {
      const I i0 = idx.lane[0];
      for (int l = 0; l < kWarpSize; ++l) {
        if (active.lane[l] != 0) base[i0 + l] = v.lane[l];
      }
      return;
    }
    simd::ref::scatter_if(base, idx.data(), v.data(), active.data());
  }
};

/// A virtual register: value lanes plus the cycle the value is ready.
/// `ready == 0` means available immediately (constants, kernel arguments);
/// the functional execution path never touches it. Like Vec, a Reg is
/// trivially default-constructible — every producing operation writes all
/// lanes (and, in timing mode, the ready cycle) before anything reads them.
template <typename T>
struct Reg {
  Vec<T> v;
  Cycle ready;

  [[nodiscard]] T& operator[](int i) { return v[i]; }
  [[nodiscard]] const T& operator[](int i) const { return v[i]; }
};

/// Lane predicate: nonzero = active/true. Produced by comparisons, consumed
/// by select() and predicated memory operations.
using Pred = Reg<int>;

}  // namespace ssam::sim
