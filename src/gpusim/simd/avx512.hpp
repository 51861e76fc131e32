// AVX-512 backend of the 32-lane engine: two 512-bit registers per warp
// value (float / int32), four for int64 lane indices.
//
// The systolic shuffles lower to true register permutes: `shfl_up/down`
// build a source-lane index vector (iota -/+ delta, clamped to "keep own
// lane" at the warp edge, exactly the CUDA __shfl_*_sync semantics) and run
// one `vpermt2d` (_mm512_permutex2var_epi32) per output register — a
// two-source cross-register permute, so the 32-lane shift never touches
// memory. `shfl_xor` is the same permute with an XOR-ed index ramp.
//
// All arithmetic preserves the reference semantics bit-for-bit:
//  * mad is multiply-then-add (two roundings, no FMA) to match the scalar
//    reference built with -ffp-contract=off;
//  * float clamp is compare+blend, not min/max, because x86 min/max
//    intrinsics resolve NaN operands differently than the reference's
//    ternary chain.
//
// Requires AVX512F + BW + DQ + VL (vpermt2d/vpermt2q need F; vpmullq needs
// DQ; the mask-to-0/1-int conversions use VL forms). CMake only selects this
// backend when the compiler accepts -mavx512f -mavx512bw -mavx512dq
// -mavx512vl and the build host executes them.
#pragma once

#if !defined(__AVX512F__) || !defined(__AVX512BW__) || !defined(__AVX512DQ__) || \
    !defined(__AVX512VL__)
#error "simd/avx512.hpp requires -mavx512f -mavx512bw -mavx512dq -mavx512vl"
#endif

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "gpusim/simd/scalar.hpp"

namespace ssam::sim::simd {

namespace avx512 {

[[nodiscard]] inline __m512i ramp_lo16() {
  return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
}
[[nodiscard]] inline __m512i ramp_hi16() {
  return _mm512_setr_epi32(16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
}

/// Runs one 32-lane 4-byte permute: output register h takes lane idx_h[l]
/// (0..31) from the concatenation lo:hi of the two source registers. Lanes
/// whose bit in `keep` is clear are zeroed (an all-ones mask compiles to the
/// plain unmasked permute).
inline void permute32(void* d, __m512i lo, __m512i hi, __m512i idx_lo, __m512i idx_hi,
                      std::uint32_t keep = ~0u) {
  _mm512_storeu_si512(
      d, _mm512_maskz_permutex2var_epi32(static_cast<__mmask16>(keep), lo, idx_lo, hi));
  _mm512_storeu_si512(
      static_cast<char*>(d) + 64,
      _mm512_maskz_permutex2var_epi32(static_cast<__mmask16>(keep >> 16), lo, idx_hi, hi));
}

inline void permute32(void* d, const void* a, __m512i idx_lo, __m512i idx_hi) {
  permute32(d, _mm512_loadu_si512(a), _mm512_loadu_si512(static_cast<const char*>(a) + 64),
            idx_lo, idx_hi);
}

/// Source-lane indices for shfl_up: l - delta, or l itself when that would
/// fall off the low edge (lane keeps its own value).
inline void shift_up32(void* d, const void* a, int delta) {
  const __m512i dv = _mm512_set1_epi32(delta);
  const __m512i r0 = ramp_lo16();
  const __m512i r1 = ramp_hi16();
  __m512i i0 = _mm512_sub_epi32(r0, dv);
  __m512i i1 = _mm512_sub_epi32(r1, dv);
  const __m512i zero = _mm512_setzero_si512();
  i0 = _mm512_mask_mov_epi32(i0, _mm512_cmplt_epi32_mask(i0, zero), r0);
  i1 = _mm512_mask_mov_epi32(i1, _mm512_cmplt_epi32_mask(i1, zero), r1);
  permute32(d, a, i0, i1);
}

/// Source-lane indices for shfl_down: l + delta, clamped at the high edge.
inline void shift_down32(void* d, const void* a, int delta) {
  const __m512i dv = _mm512_set1_epi32(delta);
  const __m512i r0 = ramp_lo16();
  const __m512i r1 = ramp_hi16();
  __m512i i0 = _mm512_add_epi32(r0, dv);
  __m512i i1 = _mm512_add_epi32(r1, dv);
  const __m512i top = _mm512_set1_epi32(kSimdLanes - 1);
  i0 = _mm512_mask_mov_epi32(i0, _mm512_cmpgt_epi32_mask(i0, top), r0);
  i1 = _mm512_mask_mov_epi32(i1, _mm512_cmpgt_epi32_mask(i1, top), r1);
  permute32(d, a, i0, i1);
}

/// shfl_xor: source lane l ^ mask; mask is in [0, 31] so the index ramp
/// stays in range by construction.
inline void butterfly32(void* d, const void* a, int lane_mask) {
  const __m512i mv = _mm512_set1_epi32(lane_mask);
  permute32(d, a, _mm512_xor_si512(ramp_lo16(), mv), _mm512_xor_si512(ramp_hi16(), mv));
}

/// Stores a 0/1 int32 lane predicate from two 16-lane compare masks.
inline void store_mask32(int* d, __mmask16 lo, __mmask16 hi) {
  _mm512_storeu_si512(d, _mm512_maskz_set1_epi32(lo, 1));
  _mm512_storeu_si512(d + 16, _mm512_maskz_set1_epi32(hi, 1));
}

// ----------------------------------------------------------------- gather
//
// A gather the caller could not serve with one block copy (vec.hpp) takes a
// window when the first and last active lanes' indices are at most 31 apart
// and bound every other active index: the clamped ramps of border warps and
// of the 3D partial-sum exchange, and broadcasts. Two masked loads fetch
// exactly that window and one vpermt2d per output register places the
// lanes. Any other shape runs the reference loop.

/// Lane bits of an int32 predicate: bit l set when lane l is active.
[[nodiscard]] inline std::uint32_t lane_bits(const int* p) {
  const __m512i lo = _mm512_loadu_si512(p);
  const __m512i hi = _mm512_loadu_si512(p + 16);
  return static_cast<std::uint32_t>(_mm512_test_epi32_mask(lo, lo)) |
         (static_cast<std::uint32_t>(_mm512_test_epi32_mask(hi, hi)) << 16);
}

/// The first n (clamped to [0, 16]) lanes of one register.
[[nodiscard]] inline __mmask16 prefix16(std::int64_t n) {
  if (n >= 16) return 0xffff;
  return n <= 0 ? 0 : static_cast<__mmask16>((1u << n) - 1);
}

/// Source window of a gather: elements [lo, lo + n) hold every active
/// lane's value, and rel0/rel1 hold each lane's offset into the window.
struct Window {
  std::int64_t lo = 0;
  std::int64_t n = 0;
  __m512i rel0{};
  __m512i rel1{};
};

/// True (and fills w) when the first and last active lanes' indices are at
/// most 31 apart and every active index lies between them: the shape of
/// every clamped, non-decreasing ramp. m must be nonzero.
[[nodiscard]] inline bool find_window(const std::int32_t* idx, std::uint32_t m, Window& w) {
  const std::int64_t lo = idx[std::countr_zero(m)];
  const std::int64_t hi = idx[31 - std::countl_zero(m)];
  if (hi < lo || hi - lo >= kSimdLanes) return false;
  const __m512i lov = _mm512_set1_epi32(static_cast<std::int32_t>(lo));
  const __m512i hiv = _mm512_set1_epi32(static_cast<std::int32_t>(hi));
  const __m512i i0 = _mm512_loadu_si512(idx);
  const __m512i i1 = _mm512_loadu_si512(idx + 16);
  const auto k0 = static_cast<__mmask16>(m);
  const auto k1 = static_cast<__mmask16>(m >> 16);
  const __mmask16 in0 =
      _mm512_mask_cmple_epi32_mask(_mm512_mask_cmpge_epi32_mask(k0, i0, lov), i0, hiv);
  const __mmask16 in1 =
      _mm512_mask_cmple_epi32_mask(_mm512_mask_cmpge_epi32_mask(k1, i1, lov), i1, hiv);
  if (in0 != k0 || in1 != k1) return false;
  w = {lo, hi - lo + 1, _mm512_sub_epi32(i0, lov), _mm512_sub_epi32(i1, lov)};
  return true;
}

[[nodiscard]] inline bool find_window(const std::int64_t* idx, std::uint32_t m, Window& w) {
  const std::int64_t lo = idx[std::countr_zero(m)];
  const std::int64_t hi = idx[31 - std::countl_zero(m)];
  // Unsigned difference: exact for any hi >= lo, even across the full range.
  if (hi < lo || static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) >= kSimdLanes) {
    return false;
  }
  const __m512i lov = _mm512_set1_epi64(lo);
  const __m512i hiv = _mm512_set1_epi64(hi);
  __m256i rel[4];
  for (int j = 0; j < 4; ++j) {
    const __m512i q = _mm512_loadu_si512(idx + 8 * j);
    const auto k = static_cast<__mmask8>(m >> (8 * j));
    if (_mm512_mask_cmple_epi64_mask(_mm512_mask_cmpge_epi64_mask(k, q, lov), q, hiv) != k) {
      return false;
    }
    rel[j] = _mm512_cvtepi64_epi32(_mm512_sub_epi64(q, lov));
  }
  w = {lo, hi - lo + 1, _mm512_inserti64x4(_mm512_castsi256_si512(rel[0]), rel[1], 1),
       _mm512_inserti64x4(_mm512_castsi256_si512(rel[2]), rel[3], 1)};
  return true;
}

/// d[l] = base[idx[l]] for lanes whose bit is set in m, T{} elsewhere, when
/// the active lanes fit a window; false (d untouched) otherwise.
template <typename T, typename I>
[[nodiscard]] inline bool gather_window(T* d, const T* base, const I* idx, std::uint32_t m) {
  Window w;
  if (m == 0 || !find_window(idx, m, w)) return false;
  const T* src = base + w.lo;
  const __m512i lo = _mm512_maskz_loadu_epi32(prefix16(w.n), src);
  const __m512i hi = w.n > 16 ? _mm512_maskz_loadu_epi32(prefix16(w.n - 16), src + 16)
                              : _mm512_setzero_si512();
  permute32(d, lo, hi, w.rel0, w.rel1, m);  // inactive lanes read as T{}
  return true;
}

/// The gathers of the 4-byte lane types.
template <typename T>
struct MemOps : RefOps<T> {
  static_assert(sizeof(T) == 4, "the window permutes 4-byte lanes");

  template <typename I>
  static void gather(T* d, const T* base, const I* idx) {
    if (!gather_window(d, base, idx, ~0u)) ref::gather(d, base, idx);
  }

  template <typename I>
  static void gather_if(T* d, const T* base, const I* idx, const int* active) {
    if (!gather_window(d, base, idx, lane_bits(active))) ref::gather_if(d, base, idx, active);
  }
};

}  // namespace avx512

template <>
struct LaneOps<float> : avx512::MemOps<float> {
  static void splat(float* d, float v) {
    const __m512 s = _mm512_set1_ps(v);
    _mm512_storeu_ps(d, s);
    _mm512_storeu_ps(d + 16, s);
  }

  static void add(float* d, const float* a, const float* b) {
    _mm512_storeu_ps(d, _mm512_add_ps(_mm512_loadu_ps(a), _mm512_loadu_ps(b)));
    _mm512_storeu_ps(d + 16, _mm512_add_ps(_mm512_loadu_ps(a + 16), _mm512_loadu_ps(b + 16)));
  }

  static void add_s(float* d, const float* a, float b) {
    const __m512 bv = _mm512_set1_ps(b);
    _mm512_storeu_ps(d, _mm512_add_ps(_mm512_loadu_ps(a), bv));
    _mm512_storeu_ps(d + 16, _mm512_add_ps(_mm512_loadu_ps(a + 16), bv));
  }

  static void sub(float* d, const float* a, const float* b) {
    _mm512_storeu_ps(d, _mm512_sub_ps(_mm512_loadu_ps(a), _mm512_loadu_ps(b)));
    _mm512_storeu_ps(d + 16, _mm512_sub_ps(_mm512_loadu_ps(a + 16), _mm512_loadu_ps(b + 16)));
  }

  static void mul(float* d, const float* a, const float* b) {
    _mm512_storeu_ps(d, _mm512_mul_ps(_mm512_loadu_ps(a), _mm512_loadu_ps(b)));
    _mm512_storeu_ps(d + 16, _mm512_mul_ps(_mm512_loadu_ps(a + 16), _mm512_loadu_ps(b + 16)));
  }

  static void mul_s(float* d, const float* a, float b) {
    const __m512 bv = _mm512_set1_ps(b);
    _mm512_storeu_ps(d, _mm512_mul_ps(_mm512_loadu_ps(a), bv));
    _mm512_storeu_ps(d + 16, _mm512_mul_ps(_mm512_loadu_ps(a + 16), bv));
  }

  // Deliberately unfused (mul, then add): bit parity with the scalar
  // reference under -ffp-contract=off.
  static void mad(float* d, const float* a, const float* b, const float* c) {
    _mm512_storeu_ps(
        d, _mm512_add_ps(_mm512_mul_ps(_mm512_loadu_ps(a), _mm512_loadu_ps(b)),
                         _mm512_loadu_ps(c)));
    _mm512_storeu_ps(
        d + 16, _mm512_add_ps(_mm512_mul_ps(_mm512_loadu_ps(a + 16), _mm512_loadu_ps(b + 16)),
                              _mm512_loadu_ps(c + 16)));
  }

  static void mad_s(float* d, const float* a, float b, const float* c) {
    const __m512 bv = _mm512_set1_ps(b);
    _mm512_storeu_ps(d, _mm512_add_ps(_mm512_mul_ps(_mm512_loadu_ps(a), bv), _mm512_loadu_ps(c)));
    _mm512_storeu_ps(d + 16, _mm512_add_ps(_mm512_mul_ps(_mm512_loadu_ps(a + 16), bv),
                                           _mm512_loadu_ps(c + 16)));
  }

  static void affine(float* d, const float* x, float scale, float offset) {
    const __m512 sv = _mm512_set1_ps(scale);
    const __m512 ov = _mm512_set1_ps(offset);
    _mm512_storeu_ps(d, _mm512_add_ps(_mm512_mul_ps(_mm512_loadu_ps(x), sv), ov));
    _mm512_storeu_ps(d + 16, _mm512_add_ps(_mm512_mul_ps(_mm512_loadu_ps(x + 16), sv), ov));
  }

  // Compare+blend (not min/max) so NaN lanes resolve exactly like the
  // reference ternary chain: comparisons with NaN are false, lane keeps x.
  static void clamp(float* d, const float* x, float lo, float hi) {
    const __m512 lov = _mm512_set1_ps(lo);
    const __m512 hiv = _mm512_set1_ps(hi);
    for (int h = 0; h < 2; ++h) {
      __m512 v = _mm512_loadu_ps(x + 16 * h);
      v = _mm512_mask_mov_ps(v, _mm512_cmp_ps_mask(v, lov, _CMP_LT_OQ), lov);
      v = _mm512_mask_mov_ps(v, _mm512_cmp_ps_mask(v, hiv, _CMP_GT_OQ), hiv);
      _mm512_storeu_ps(d + 16 * h, v);
    }
  }

  static void ge_s(int* d, const float* a, float b) {
    const __m512 bv = _mm512_set1_ps(b);
    avx512::store_mask32(d, _mm512_cmp_ps_mask(_mm512_loadu_ps(a), bv, _CMP_GE_OQ),
                         _mm512_cmp_ps_mask(_mm512_loadu_ps(a + 16), bv, _CMP_GE_OQ));
  }

  static void lt_s(int* d, const float* a, float b) {
    const __m512 bv = _mm512_set1_ps(b);
    avx512::store_mask32(d, _mm512_cmp_ps_mask(_mm512_loadu_ps(a), bv, _CMP_LT_OQ),
                         _mm512_cmp_ps_mask(_mm512_loadu_ps(a + 16), bv, _CMP_LT_OQ));
  }

  static void select(float* d, const int* pred, const float* a, const float* b) {
    for (int h = 0; h < 2; ++h) {
      const __m512i p = _mm512_loadu_si512(pred + 16 * h);
      const __mmask16 m = _mm512_test_epi32_mask(p, p);  // pred != 0
      _mm512_storeu_ps(d + 16 * h,
                       _mm512_mask_blend_ps(m, _mm512_loadu_ps(b + 16 * h),
                                            _mm512_loadu_ps(a + 16 * h)));
    }
  }

  static void shift_up(float* d, const float* a, int delta) {
    avx512::shift_up32(d, a, delta);
  }
  static void shift_down(float* d, const float* a, int delta) {
    avx512::shift_down32(d, a, delta);
  }
  static void butterfly(float* d, const float* a, int lane_mask) {
    avx512::butterfly32(d, a, lane_mask);
  }
};

template <>
struct LaneOps<std::int32_t> : avx512::MemOps<std::int32_t> {
  using T = std::int32_t;

  static void splat(T* d, T v) {
    const __m512i s = _mm512_set1_epi32(v);
    _mm512_storeu_si512(d, s);
    _mm512_storeu_si512(d + 16, s);
  }

  static void iota(T* d, T base, T step) {
    const __m512i sv = _mm512_set1_epi32(step);
    const __m512i bv = _mm512_set1_epi32(base);
    _mm512_storeu_si512(d, _mm512_add_epi32(_mm512_mullo_epi32(avx512::ramp_lo16(), sv), bv));
    _mm512_storeu_si512(d + 16,
                        _mm512_add_epi32(_mm512_mullo_epi32(avx512::ramp_hi16(), sv), bv));
  }

  static void add(T* d, const T* a, const T* b) {
    _mm512_storeu_si512(d, _mm512_add_epi32(_mm512_loadu_si512(a), _mm512_loadu_si512(b)));
    _mm512_storeu_si512(
        d + 16, _mm512_add_epi32(_mm512_loadu_si512(a + 16), _mm512_loadu_si512(b + 16)));
  }

  static void add_s(T* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi32(b);
    _mm512_storeu_si512(d, _mm512_add_epi32(_mm512_loadu_si512(a), bv));
    _mm512_storeu_si512(d + 16, _mm512_add_epi32(_mm512_loadu_si512(a + 16), bv));
  }

  static void sub(T* d, const T* a, const T* b) {
    _mm512_storeu_si512(d, _mm512_sub_epi32(_mm512_loadu_si512(a), _mm512_loadu_si512(b)));
    _mm512_storeu_si512(
        d + 16, _mm512_sub_epi32(_mm512_loadu_si512(a + 16), _mm512_loadu_si512(b + 16)));
  }

  static void mul(T* d, const T* a, const T* b) {
    _mm512_storeu_si512(d, _mm512_mullo_epi32(_mm512_loadu_si512(a), _mm512_loadu_si512(b)));
    _mm512_storeu_si512(
        d + 16, _mm512_mullo_epi32(_mm512_loadu_si512(a + 16), _mm512_loadu_si512(b + 16)));
  }

  static void mul_s(T* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi32(b);
    _mm512_storeu_si512(d, _mm512_mullo_epi32(_mm512_loadu_si512(a), bv));
    _mm512_storeu_si512(d + 16, _mm512_mullo_epi32(_mm512_loadu_si512(a + 16), bv));
  }

  static void mad(T* d, const T* a, const T* b, const T* c) {
    _mm512_storeu_si512(
        d, _mm512_add_epi32(_mm512_mullo_epi32(_mm512_loadu_si512(a), _mm512_loadu_si512(b)),
                            _mm512_loadu_si512(c)));
    _mm512_storeu_si512(d + 16, _mm512_add_epi32(_mm512_mullo_epi32(_mm512_loadu_si512(a + 16),
                                                                    _mm512_loadu_si512(b + 16)),
                                                 _mm512_loadu_si512(c + 16)));
  }

  static void mad_s(T* d, const T* a, T b, const T* c) {
    const __m512i bv = _mm512_set1_epi32(b);
    _mm512_storeu_si512(d, _mm512_add_epi32(_mm512_mullo_epi32(_mm512_loadu_si512(a), bv),
                                            _mm512_loadu_si512(c)));
    _mm512_storeu_si512(d + 16, _mm512_add_epi32(_mm512_mullo_epi32(_mm512_loadu_si512(a + 16), bv),
                                                 _mm512_loadu_si512(c + 16)));
  }

  static void affine(T* d, const T* x, T scale, T offset) {
    const __m512i sv = _mm512_set1_epi32(scale);
    const __m512i ov = _mm512_set1_epi32(offset);
    _mm512_storeu_si512(d, _mm512_add_epi32(_mm512_mullo_epi32(_mm512_loadu_si512(x), sv), ov));
    _mm512_storeu_si512(d + 16,
                        _mm512_add_epi32(_mm512_mullo_epi32(_mm512_loadu_si512(x + 16), sv), ov));
  }

  // Integer min/max match the reference ternary chain exactly.
  static void clamp(T* d, const T* x, T lo, T hi) {
    const __m512i lov = _mm512_set1_epi32(lo);
    const __m512i hiv = _mm512_set1_epi32(hi);
    for (int h = 0; h < 2; ++h) {
      __m512i v = _mm512_loadu_si512(x + 16 * h);
      v = _mm512_min_epi32(_mm512_max_epi32(v, lov), hiv);
      _mm512_storeu_si512(d + 16 * h, v);
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi32(b);
    avx512::store_mask32(d, _mm512_cmpge_epi32_mask(_mm512_loadu_si512(a), bv),
                         _mm512_cmpge_epi32_mask(_mm512_loadu_si512(a + 16), bv));
  }

  static void lt_s(int* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi32(b);
    avx512::store_mask32(d, _mm512_cmplt_epi32_mask(_mm512_loadu_si512(a), bv),
                         _mm512_cmplt_epi32_mask(_mm512_loadu_si512(a + 16), bv));
  }

  static void logical_and(int* d, const int* a, const int* b) {
    for (int h = 0; h < 2; ++h) {
      const __m512i av = _mm512_loadu_si512(a + 16 * h);
      const __m512i bv = _mm512_loadu_si512(b + 16 * h);
      const __mmask16 m = _mm512_test_epi32_mask(av, av) & _mm512_test_epi32_mask(bv, bv);
      _mm512_storeu_si512(d + 16 * h, _mm512_maskz_set1_epi32(m, 1));
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    for (int h = 0; h < 2; ++h) {
      const __m512i p = _mm512_loadu_si512(pred + 16 * h);
      const __mmask16 m = _mm512_test_epi32_mask(p, p);
      _mm512_storeu_si512(d + 16 * h,
                          _mm512_mask_blend_epi32(m, _mm512_loadu_si512(b + 16 * h),
                                                  _mm512_loadu_si512(a + 16 * h)));
    }
  }

  static void shift_up(T* d, const T* a, int delta) { avx512::shift_up32(d, a, delta); }
  static void shift_down(T* d, const T* a, int delta) { avx512::shift_down32(d, a, delta); }
  static void butterfly(T* d, const T* a, int lane_mask) {
    avx512::butterfly32(d, a, lane_mask);
  }

  static bool unit_stride(const T* idx) {
    const __m512i i0 = _mm512_set1_epi32(idx[0]);
    const __mmask16 k0 = _mm512_cmpeq_epi32_mask(
        _mm512_loadu_si512(idx), _mm512_add_epi32(i0, avx512::ramp_lo16()));
    const __mmask16 k1 = _mm512_cmpeq_epi32_mask(
        _mm512_loadu_si512(idx + 16), _mm512_add_epi32(i0, avx512::ramp_hi16()));
    return (k0 & k1) == 0xffffu;
  }

  static bool all_nonzero(const int* p) {
    const __m512i lo = _mm512_loadu_si512(p);
    const __m512i hi = _mm512_loadu_si512(p + 16);
    return (_mm512_test_epi32_mask(lo, lo) & _mm512_test_epi32_mask(hi, hi)) == 0xffffu;
  }
};

/// 64-bit lane indices (ssam::Index): eight lanes per register, four
/// registers. These are the addressing ops of every load/store — iota,
/// affine, clamp, bounds compares, and the coalescing unit-stride test.
template <>
struct LaneOps<std::int64_t> : RefOps<std::int64_t> {
  using T = std::int64_t;

  [[nodiscard]] static __m512i ramp8(int q) {  // lanes 8q .. 8q+7
    const std::int64_t b = 8 * q;
    return _mm512_setr_epi64(b, b + 1, b + 2, b + 3, b + 4, b + 5, b + 6, b + 7);
  }

  static void splat(T* d, T v) {
    const __m512i s = _mm512_set1_epi64(v);
    for (int q = 0; q < 4; ++q) _mm512_storeu_si512(d + 8 * q, s);
  }

  static void iota(T* d, T base, T step) {
    const __m512i sv = _mm512_set1_epi64(step);
    const __m512i bv = _mm512_set1_epi64(base);
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(d + 8 * q, _mm512_add_epi64(_mm512_mullo_epi64(ramp8(q), sv), bv));
    }
  }

  static void add(T* d, const T* a, const T* b) {
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(
          d + 8 * q, _mm512_add_epi64(_mm512_loadu_si512(a + 8 * q), _mm512_loadu_si512(b + 8 * q)));
    }
  }

  static void add_s(T* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi64(b);
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(d + 8 * q, _mm512_add_epi64(_mm512_loadu_si512(a + 8 * q), bv));
    }
  }

  static void sub(T* d, const T* a, const T* b) {
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(
          d + 8 * q, _mm512_sub_epi64(_mm512_loadu_si512(a + 8 * q), _mm512_loadu_si512(b + 8 * q)));
    }
  }

  static void mul(T* d, const T* a, const T* b) {
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(d + 8 * q, _mm512_mullo_epi64(_mm512_loadu_si512(a + 8 * q),
                                                        _mm512_loadu_si512(b + 8 * q)));
    }
  }

  static void mul_s(T* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi64(b);
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(d + 8 * q, _mm512_mullo_epi64(_mm512_loadu_si512(a + 8 * q), bv));
    }
  }

  static void mad(T* d, const T* a, const T* b, const T* c) {
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(
          d + 8 * q,
          _mm512_add_epi64(_mm512_mullo_epi64(_mm512_loadu_si512(a + 8 * q),
                                              _mm512_loadu_si512(b + 8 * q)),
                           _mm512_loadu_si512(c + 8 * q)));
    }
  }

  static void mad_s(T* d, const T* a, T b, const T* c) {
    const __m512i bv = _mm512_set1_epi64(b);
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(d + 8 * q,
                          _mm512_add_epi64(_mm512_mullo_epi64(_mm512_loadu_si512(a + 8 * q), bv),
                                           _mm512_loadu_si512(c + 8 * q)));
    }
  }

  static void affine(T* d, const T* x, T scale, T offset) {
    const __m512i sv = _mm512_set1_epi64(scale);
    const __m512i ov = _mm512_set1_epi64(offset);
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_si512(d + 8 * q,
                          _mm512_add_epi64(_mm512_mullo_epi64(_mm512_loadu_si512(x + 8 * q), sv),
                                           ov));
    }
  }

  static void clamp(T* d, const T* x, T lo, T hi) {
    const __m512i lov = _mm512_set1_epi64(lo);
    const __m512i hiv = _mm512_set1_epi64(hi);
    for (int q = 0; q < 4; ++q) {
      __m512i v = _mm512_loadu_si512(x + 8 * q);
      v = _mm512_min_epi64(_mm512_max_epi64(v, lov), hiv);
      _mm512_storeu_si512(d + 8 * q, v);
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi64(b);
    for (int h = 0; h < 2; ++h) {
      const __mmask8 m0 = _mm512_cmpge_epi64_mask(_mm512_loadu_si512(a + 16 * h), bv);
      const __mmask8 m1 = _mm512_cmpge_epi64_mask(_mm512_loadu_si512(a + 16 * h + 8), bv);
      const __mmask16 m = static_cast<__mmask16>(m0 | (static_cast<unsigned>(m1) << 8));
      _mm512_storeu_si512(d + 16 * h, _mm512_maskz_set1_epi32(m, 1));
    }
  }

  static void lt_s(int* d, const T* a, T b) {
    const __m512i bv = _mm512_set1_epi64(b);
    for (int h = 0; h < 2; ++h) {
      const __mmask8 m0 = _mm512_cmplt_epi64_mask(_mm512_loadu_si512(a + 16 * h), bv);
      const __mmask8 m1 = _mm512_cmplt_epi64_mask(_mm512_loadu_si512(a + 16 * h + 8), bv);
      const __mmask16 m = static_cast<__mmask16>(m0 | (static_cast<unsigned>(m1) << 8));
      _mm512_storeu_si512(d + 16 * h, _mm512_maskz_set1_epi32(m, 1));
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    for (int q = 0; q < 4; ++q) {
      // Widen the 8 int32 predicate lanes for this register to a mask.
      const __m256i p = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pred + 8 * q));
      const __mmask8 m = _mm256_test_epi32_mask(p, p);
      _mm512_storeu_si512(d + 8 * q,
                          _mm512_mask_blend_epi64(m, _mm512_loadu_si512(b + 8 * q),
                                                  _mm512_loadu_si512(a + 8 * q)));
    }
  }

  static bool unit_stride(const T* idx) {
    const __m512i i0 = _mm512_set1_epi64(idx[0]);
    __mmask8 k = 0xff;
    for (int q = 0; q < 4; ++q) {
      k &= _mm512_cmpeq_epi64_mask(_mm512_loadu_si512(idx + 8 * q),
                                   _mm512_add_epi64(i0, ramp8(q)));
    }
    return k == 0xff;
  }

  // 8-byte shuffles run the same two-source permute trick with vpermt2q.
  static void shift_up(T* d, const T* a, int delta) { permute_shift(d, a, -delta); }
  static void shift_down(T* d, const T* a, int delta) { permute_shift(d, a, delta); }

  static void butterfly(T* d, const T* a, int lane_mask) {
    const __m512i mv = _mm512_set1_epi64(lane_mask);
    for (int q = 0; q < 4; ++q) {
      const __m512i idx = _mm512_xor_si512(ramp8(q), mv);
      store_permuted(d + 8 * q, a, idx);
    }
  }

 private:
  /// d[l] = a[l + shift] where in range, else a[l] (CUDA keep-own edges).
  static void permute_shift(T* d, const T* a, int shift) {
    const __m512i sv = _mm512_set1_epi64(shift);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i top = _mm512_set1_epi64(kSimdLanes - 1);
    for (int q = 0; q < 4; ++q) {
      const __m512i r = ramp8(q);
      __m512i idx = _mm512_add_epi64(r, sv);
      const __mmask8 oob =
          _mm512_cmplt_epi64_mask(idx, zero) | _mm512_cmpgt_epi64_mask(idx, top);
      idx = _mm512_mask_mov_epi64(idx, oob, r);
      store_permuted(d + 8 * q, a, idx);
    }
  }

  /// One output register whose lane l takes a[idx[l]], idx in [0, 31]:
  /// two vpermt2q (each covering 16 source lanes) merged by the index MSB.
  static void store_permuted(T* d, const T* a, __m512i idx) {
    const __m512i r01 = _mm512_permutex2var_epi64(
        _mm512_loadu_si512(a), _mm512_and_si512(idx, _mm512_set1_epi64(15)),
        _mm512_loadu_si512(a + 8));
    const __m512i r23 = _mm512_permutex2var_epi64(
        _mm512_loadu_si512(a + 16), _mm512_and_si512(idx, _mm512_set1_epi64(15)),
        _mm512_loadu_si512(a + 24));
    const __mmask8 hi = _mm512_cmpge_epi64_mask(idx, _mm512_set1_epi64(16));
    _mm512_storeu_si512(d, _mm512_mask_blend_epi64(hi, r01, r23));
  }
};

inline constexpr const char* kBackendName = "avx512";

}  // namespace ssam::sim::simd
