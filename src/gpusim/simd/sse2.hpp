// SSE2 backend of the 32-lane engine: eight 128-bit registers per warp
// value. This is the x86-64 baseline fallback — always available, no CMake
// feature flags needed.
//
// SSE2 has no variable permute instruction (PSHUFB arrives with SSSE3,
// variable-index permutes with AVX), so the shuffles stay on the portable
// reference path: its fixed-size overlapping copies already compile to
// straight vector moves. What SSE2 does buy is 4-wide float arithmetic with
// guaranteed vector codegen for the mad/add chains regardless of the
// autovectorizer's mood. Integer multiplies (PMULLD is SSE4.1) and the
// 64-bit index ops also stay on the reference path.
//
// mad is unfused (mul, then add) and float clamp is compare+blend, matching
// the scalar reference bit-for-bit — see scalar.hpp.
#pragma once

#if !defined(__SSE2__) && !(defined(_M_X64) || defined(__x86_64__))
#error "simd/sse2.hpp requires SSE2"
#endif

#include <emmintrin.h>

#include <cstdint>

#include "gpusim/simd/scalar.hpp"

namespace ssam::sim::simd {

namespace sse2 {

/// Bitwise select: mask lanes must be all-ones or all-zeros.
[[nodiscard]] inline __m128 blend(__m128 a, __m128 b, __m128 take_b) {
  return _mm_or_ps(_mm_andnot_ps(take_b, a), _mm_and_ps(take_b, b));
}

[[nodiscard]] inline __m128i blend_i(__m128i a, __m128i b, __m128i take_b) {
  return _mm_or_si128(_mm_andnot_si128(take_b, a), _mm_and_si128(take_b, b));
}

}  // namespace sse2

template <>
struct LaneOps<float> : RefOps<float> {
  static void splat(float* d, float v) {
    const __m128 s = _mm_set1_ps(v);
    for (int c = 0; c < 8; ++c) _mm_storeu_ps(d + 4 * c, s);
  }

  static void add(float* d, const float* a, const float* b) {
    for (int c = 0; c < 8; ++c) {
      _mm_storeu_ps(d + 4 * c, _mm_add_ps(_mm_loadu_ps(a + 4 * c), _mm_loadu_ps(b + 4 * c)));
    }
  }

  static void add_s(float* d, const float* a, float b) {
    const __m128 bv = _mm_set1_ps(b);
    for (int c = 0; c < 8; ++c) _mm_storeu_ps(d + 4 * c, _mm_add_ps(_mm_loadu_ps(a + 4 * c), bv));
  }

  static void sub(float* d, const float* a, const float* b) {
    for (int c = 0; c < 8; ++c) {
      _mm_storeu_ps(d + 4 * c, _mm_sub_ps(_mm_loadu_ps(a + 4 * c), _mm_loadu_ps(b + 4 * c)));
    }
  }

  static void mul(float* d, const float* a, const float* b) {
    for (int c = 0; c < 8; ++c) {
      _mm_storeu_ps(d + 4 * c, _mm_mul_ps(_mm_loadu_ps(a + 4 * c), _mm_loadu_ps(b + 4 * c)));
    }
  }

  static void mul_s(float* d, const float* a, float b) {
    const __m128 bv = _mm_set1_ps(b);
    for (int c = 0; c < 8; ++c) _mm_storeu_ps(d + 4 * c, _mm_mul_ps(_mm_loadu_ps(a + 4 * c), bv));
  }

  static void mad(float* d, const float* a, const float* b, const float* c3) {
    for (int c = 0; c < 8; ++c) {
      _mm_storeu_ps(d + 4 * c,
                    _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(a + 4 * c), _mm_loadu_ps(b + 4 * c)),
                               _mm_loadu_ps(c3 + 4 * c)));
    }
  }

  static void mad_s(float* d, const float* a, float b, const float* c3) {
    const __m128 bv = _mm_set1_ps(b);
    for (int c = 0; c < 8; ++c) {
      _mm_storeu_ps(d + 4 * c,
                    _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(a + 4 * c), bv), _mm_loadu_ps(c3 + 4 * c)));
    }
  }

  static void affine(float* d, const float* x, float scale, float offset) {
    const __m128 sv = _mm_set1_ps(scale);
    const __m128 ov = _mm_set1_ps(offset);
    for (int c = 0; c < 8; ++c) {
      _mm_storeu_ps(d + 4 * c, _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(x + 4 * c), sv), ov));
    }
  }

  static void clamp(float* d, const float* x, float lo, float hi) {
    const __m128 lov = _mm_set1_ps(lo);
    const __m128 hiv = _mm_set1_ps(hi);
    for (int c = 0; c < 8; ++c) {
      __m128 v = _mm_loadu_ps(x + 4 * c);
      v = sse2::blend(v, lov, _mm_cmplt_ps(v, lov));
      v = sse2::blend(v, hiv, _mm_cmpgt_ps(v, hiv));
      _mm_storeu_ps(d + 4 * c, v);
    }
  }

  static void ge_s(int* d, const float* a, float b) {
    const __m128 bv = _mm_set1_ps(b);
    const __m128i one = _mm_set1_epi32(1);
    for (int c = 0; c < 8; ++c) {
      const __m128i m = _mm_castps_si128(_mm_cmpge_ps(_mm_loadu_ps(a + 4 * c), bv));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 4 * c), _mm_and_si128(m, one));
    }
  }

  static void lt_s(int* d, const float* a, float b) {
    const __m128 bv = _mm_set1_ps(b);
    const __m128i one = _mm_set1_epi32(1);
    for (int c = 0; c < 8; ++c) {
      const __m128i m = _mm_castps_si128(_mm_cmplt_ps(_mm_loadu_ps(a + 4 * c), bv));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 4 * c), _mm_and_si128(m, one));
    }
  }

  static void select(float* d, const int* pred, const float* a, const float* b) {
    const __m128i zero = _mm_setzero_si128();
    for (int c = 0; c < 8; ++c) {
      const __m128i p = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pred + 4 * c));
      const __m128 take_b = _mm_castsi128_ps(_mm_cmpeq_epi32(p, zero));
      _mm_storeu_ps(d + 4 * c,
                    sse2::blend(_mm_loadu_ps(a + 4 * c), _mm_loadu_ps(b + 4 * c), take_b));
    }
  }
};

template <>
struct LaneOps<std::int32_t> : RefOps<std::int32_t> {
  using T = std::int32_t;

  [[nodiscard]] static __m128i load4(const T* p, int c) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 4 * c));
  }
  static void store4(T* p, int c, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + 4 * c), v);
  }

  static void splat(T* d, T v) {
    const __m128i s = _mm_set1_epi32(v);
    for (int c = 0; c < 8; ++c) store4(d, c, s);
  }

  static void add(T* d, const T* a, const T* b) {
    for (int c = 0; c < 8; ++c) store4(d, c, _mm_add_epi32(load4(a, c), load4(b, c)));
  }

  static void add_s(T* d, const T* a, T b) {
    const __m128i bv = _mm_set1_epi32(b);
    for (int c = 0; c < 8; ++c) store4(d, c, _mm_add_epi32(load4(a, c), bv));
  }

  static void sub(T* d, const T* a, const T* b) {
    for (int c = 0; c < 8; ++c) store4(d, c, _mm_sub_epi32(load4(a, c), load4(b, c)));
  }

  static void clamp(T* d, const T* x, T lo, T hi) {
    const __m128i lov = _mm_set1_epi32(lo);
    const __m128i hiv = _mm_set1_epi32(hi);
    for (int c = 0; c < 8; ++c) {
      __m128i v = load4(x, c);
      v = sse2::blend_i(v, lov, _mm_cmplt_epi32(v, lov));
      v = sse2::blend_i(v, hiv, _mm_cmpgt_epi32(v, hiv));
      store4(d, c, v);
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const __m128i bv = _mm_set1_epi32(b);
    const __m128i one = _mm_set1_epi32(1);
    for (int c = 0; c < 8; ++c) {
      const __m128i lt = _mm_cmplt_epi32(load4(a, c), bv);
      store4(d, c, _mm_add_epi32(lt, one));  // 0/-1 mask + 1 inverts to 1/0
    }
  }

  static void lt_s(int* d, const T* a, T b) {
    const __m128i bv = _mm_set1_epi32(b);
    const __m128i one = _mm_set1_epi32(1);
    for (int c = 0; c < 8; ++c) store4(d, c, _mm_and_si128(_mm_cmplt_epi32(load4(a, c), bv), one));
  }

  static void logical_and(int* d, const int* a, const int* b) {
    const __m128i zero = _mm_setzero_si128();
    const __m128i one = _mm_set1_epi32(1);
    for (int c = 0; c < 8; ++c) {
      const __m128i either_zero = _mm_or_si128(_mm_cmpeq_epi32(load4(a, c), zero),
                                               _mm_cmpeq_epi32(load4(b, c), zero));
      store4(d, c, _mm_andnot_si128(either_zero, one));
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    const __m128i zero = _mm_setzero_si128();
    for (int c = 0; c < 8; ++c) {
      const __m128i take_b = _mm_cmpeq_epi32(load4(pred, c), zero);
      store4(d, c, sse2::blend_i(load4(a, c), load4(b, c), take_b));
    }
  }

  static bool all_nonzero(const int* p) {
    const __m128i zero = _mm_setzero_si128();
    __m128i any_zero = zero;
    for (int c = 0; c < 8; ++c) {
      any_zero = _mm_or_si128(any_zero, _mm_cmpeq_epi32(load4(p, c), zero));
    }
    return _mm_movemask_epi8(any_zero) == 0;
  }
};

inline constexpr const char* kBackendName = "sse2";

}  // namespace ssam::sim::simd
