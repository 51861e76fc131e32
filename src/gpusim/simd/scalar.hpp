// Portable reference implementation of the 32-lane engine.
//
// `ref::` free functions define the *semantics* of every lane primitive as
// one short fixed-trip-count loop per operation. Every vector backend must
// reproduce these bit-for-bit (the parity suite in tests/test_simd_parity.cpp
// enforces exact equality, including float bit patterns), which is what keeps
// functional-mode kernel results identical no matter which backend CMake
// selected. `RefOps<T>` packages the reference as the customization point:
// `LaneOps<T>` (see simd.hpp) derives from it, and a vector backend
// specializes `LaneOps` for the element types it accelerates, shadowing just
// the statics it implements natively.
//
// FP contract note: `mad` is deliberately two roundings (multiply, then add),
// never a fused FMA. The build adds -ffp-contract=off so the compiler cannot
// silently contract these loops on FMA-capable targets — otherwise the scalar
// reference would fuse under -march=native but not under the default arch,
// and cross-backend bit parity would be flag-dependent.
#pragma once

#include <cstdint>
#include <type_traits>

namespace ssam::sim::simd {

/// Lane count of the engine: one CUDA warp.
inline constexpr int kSimdLanes = 32;

// Vectorization hint for the reference loops. `omp simd` needs
// -fopenmp / -fopenmp-simd; without it the fixed trip count still lets the
// optimizer auto-vectorize at -O2/-O3.
#if defined(_OPENMP)
#define SSAM_SIMD _Pragma("omp simd")
#else
#define SSAM_SIMD
#endif

namespace ref {

// Integer lane arithmetic wraps modulo 2^N, exactly like the vector
// intrinsics of every backend. Computing it through the unsigned type keeps
// the reference loops free of signed-overflow UB (the parity suite drives
// them with full-range lanes under UBSan) without changing a single result
// bit. Floating-point passes through untouched.
template <typename T>
[[nodiscard]] inline T wrap_add(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
  } else {
    return a + b;
  }
}

template <typename T>
[[nodiscard]] inline T wrap_sub(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
  } else {
    return a - b;
  }
}

template <typename T>
[[nodiscard]] inline T wrap_mul(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
  } else {
    return a * b;
  }
}

template <typename T>
[[nodiscard]] inline T wrap_mad(T a, T b, T c) {
  return wrap_add(wrap_mul(a, b), c);
}

template <typename T>
inline void splat(T* d, T v) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = v;
}

/// Repeated addition, matching the historical Vec::iota semantics exactly
/// (for floating T, base + l*step would round differently).
template <typename T>
inline void iota(T* d, T base, T step) {
  T v = base;
  for (int l = 0; l < kSimdLanes; ++l, v = wrap_add(v, step)) d[l] = v;
}

template <typename T>
inline void add(T* d, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_add(a[l], b[l]);
}

template <typename T>
inline void add_s(T* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_add(a[l], b);
}

template <typename T>
inline void sub(T* d, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_sub(a[l], b[l]);
}

template <typename T>
inline void mul(T* d, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mul(a[l], b[l]);
}

template <typename T>
inline void mul_s(T* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mul(a[l], b);
}

/// d = a*b + c, two roundings (see FP contract note in the header comment).
template <typename T>
inline void mad(T* d, const T* a, const T* b, const T* c) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mad(a[l], b[l], c[l]);
}

template <typename T>
inline void mad_s(T* d, const T* a, T b, const T* c) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mad(a[l], b, c[l]);
}

template <typename T>
inline void affine(T* d, const T* x, T scale, T offset) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = wrap_mad(x[l], scale, offset);
}

template <typename T>
inline void clamp(T* d, const T* x, T lo, T hi) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) {
    T v = x[l];
    v = v < lo ? lo : v;
    v = v > hi ? hi : v;
    d[l] = v;
  }
}

template <typename T>
inline void ge_s(int* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = a[l] >= b ? 1 : 0;
}

template <typename T>
inline void lt_s(int* d, const T* a, T b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = a[l] < b ? 1 : 0;
}

inline void logical_and(int* d, const int* a, const int* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = (a[l] != 0 && b[l] != 0) ? 1 : 0;
}

template <typename T>
inline void select(T* d, const int* pred, const T* a, const T* b) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = pred[l] != 0 ? a[l] : b[l];
}

// Shuffles follow CUDA __shfl_*_sync semantics with a full mask: a lane
// whose source falls outside the warp keeps its own value. Callers normalize
// delta into [1, 32] and the butterfly mask into [0, 31] before dispatching.

/// __shfl_up: lane l receives lane l-delta; lanes < delta keep their own.
template <typename T>
inline void shift_up(T* d, const T* a, int delta) {
  for (int l = 0; l < kSimdLanes; ++l) d[l] = l >= delta ? a[l - delta] : a[l];
}

/// __shfl_down: lane l receives lane l+delta; top delta lanes keep their own.
template <typename T>
inline void shift_down(T* d, const T* a, int delta) {
  for (int l = 0; l < kSimdLanes; ++l) {
    d[l] = l + delta < kSimdLanes ? a[l + delta] : a[l];
  }
}

/// __shfl_xor butterfly; lane_mask must already be masked into [0, 31].
template <typename T>
inline void butterfly(T* d, const T* a, int lane_mask) {
  for (int l = 0; l < kSimdLanes; ++l) d[l] = a[l ^ lane_mask];
}

/// True when every predicate lane is active — the common case of masked
/// loads/stores issued by interior (non-border) warps.
[[nodiscard]] inline bool all_nonzero(const int* p) {
  bool all = true;
  for (int l = 0; l < kSimdLanes; ++l) all &= p[l] != 0;
  return all;
}

/// True when idx is the unit-stride ramp idx[0], idx[0]+1, ... — the fully
/// coalesced pattern almost every SSAM access produces.
template <typename T>
[[nodiscard]] inline bool unit_stride(const T* idx) {
  const T i0 = idx[0];
  bool contiguous = true;
  // Loop-carried reduction: no `omp simd` (it would need a reduction
  // clause); the fixed-trip loop auto-vectorizes fine regardless.
  for (int l = 1; l < kSimdLanes; ++l) {
    contiguous &= idx[l] == wrap_add(i0, static_cast<T>(l));
  }
  return contiguous;
}

// Memory primitives. Indices are lane offsets into `base` (int32 for shared
// memory, int64 for global); only active lanes' indices are dereferenced, so
// an inactive lane may carry any value, out-of-range ones included.

/// Gather: d[l] = base[idx[l]].
template <typename T, typename I>
inline void gather(T* d, const T* base, const I* idx) {
  SSAM_SIMD
  for (int l = 0; l < kSimdLanes; ++l) d[l] = base[idx[l]];
}

/// Masked gather: active lanes read base[idx[l]], inactive lanes get T{}.
template <typename T, typename I>
inline void gather_if(T* d, const T* base, const I* idx, const int* active) {
  for (int l = 0; l < kSimdLanes; ++l) d[l] = active[l] != 0 ? base[idx[l]] : T{};
}

/// Masked scatter: base[idx[l]] = v[l] for active lanes, in lane order (a
/// later lane wins a colliding index).
template <typename T, typename I>
inline void scatter_if(T* base, const I* idx, const T* v, const int* active) {
  for (int l = 0; l < kSimdLanes; ++l) {
    if (active[l] != 0) base[idx[l]] = v[l];
  }
}

}  // namespace ref

/// Reference ops bundle. `LaneOps<T>` (simd.hpp) derives from this; vector
/// backends specialize `LaneOps` and shadow the statics they accelerate, so
/// any element type or operation a backend does not cover falls back here.
template <typename T>
struct RefOps {
  static void splat(T* d, T v) { ref::splat(d, v); }
  static void iota(T* d, T base, T step) { ref::iota(d, base, step); }
  static void add(T* d, const T* a, const T* b) { ref::add(d, a, b); }
  static void add_s(T* d, const T* a, T b) { ref::add_s(d, a, b); }
  static void sub(T* d, const T* a, const T* b) { ref::sub(d, a, b); }
  static void mul(T* d, const T* a, const T* b) { ref::mul(d, a, b); }
  static void mul_s(T* d, const T* a, T b) { ref::mul_s(d, a, b); }
  static void mad(T* d, const T* a, const T* b, const T* c) { ref::mad(d, a, b, c); }
  static void mad_s(T* d, const T* a, T b, const T* c) { ref::mad_s(d, a, b, c); }
  static void affine(T* d, const T* x, T scale, T offset) { ref::affine(d, x, scale, offset); }
  static void clamp(T* d, const T* x, T lo, T hi) { ref::clamp(d, x, lo, hi); }
  static void ge_s(int* d, const T* a, T b) { ref::ge_s(d, a, b); }
  static void lt_s(int* d, const T* a, T b) { ref::lt_s(d, a, b); }
  static void logical_and(int* d, const int* a, const int* b) { ref::logical_and(d, a, b); }
  static void select(T* d, const int* pred, const T* a, const T* b) {
    ref::select(d, pred, a, b);
  }
  static void shift_up(T* d, const T* a, int delta) { ref::shift_up(d, a, delta); }
  static void shift_down(T* d, const T* a, int delta) { ref::shift_down(d, a, delta); }
  static void butterfly(T* d, const T* a, int lane_mask) { ref::butterfly(d, a, lane_mask); }
  static bool unit_stride(const T* idx) { return ref::unit_stride(idx); }
  static bool all_nonzero(const int* p) { return ref::all_nonzero(p); }
  template <typename I>
  static void gather(T* d, const T* base, const I* idx) {
    ref::gather(d, base, idx);
  }
  template <typename I>
  static void gather_if(T* d, const T* base, const I* idx, const int* active) {
    ref::gather_if(d, base, idx, active);
  }
};

/// The customization point the lane engine (gpusim/vec.hpp) dispatches
/// through. The primary template is the portable-scalar backend; each vector
/// backend header (avx512.hpp, avx2.hpp, ...) specializes it for the element
/// types it accelerates. Selection happens at compile time in simd.hpp.
template <typename T>
struct LaneOps : RefOps<T> {};

}  // namespace ssam::sim::simd
