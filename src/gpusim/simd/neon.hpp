// NEON (AArch64) backend of the 32-lane engine: eight 128-bit registers per
// warp value.
//
// Arithmetic, predicates and select run 4-wide. The float mad deliberately
// avoids vmlaq/vfmaq (both fuse on AArch64) and issues a separate multiply
// and add, matching the scalar reference built with -ffp-contract=off
// bit-for-bit; float clamp is compare+select for the same reason (vmaxq/
// vminq handle NaN like the reference ternaries do not). The shuffles stay
// on the portable reference path: NEON's vext/tbl permutes take immediate
// or byte-table operands, and the reference's fixed-size overlapping copies
// already compile to plain q-register moves. 64-bit index ops also stay on
// the reference path (no 64-bit NEON multiply).
#pragma once

#if !defined(__ARM_NEON) && !defined(__ARM_NEON__)
#error "simd/neon.hpp requires NEON"
#endif

#include <arm_neon.h>

#include <cstdint>

#include "gpusim/simd/scalar.hpp"

namespace ssam::sim::simd {

template <>
struct LaneOps<float> : RefOps<float> {
  static void splat(float* d, float v) {
    const float32x4_t s = vdupq_n_f32(v);
    for (int c = 0; c < 8; ++c) vst1q_f32(d + 4 * c, s);
  }

  static void add(float* d, const float* a, const float* b) {
    for (int c = 0; c < 8; ++c) {
      vst1q_f32(d + 4 * c, vaddq_f32(vld1q_f32(a + 4 * c), vld1q_f32(b + 4 * c)));
    }
  }

  static void add_s(float* d, const float* a, float b) {
    const float32x4_t bv = vdupq_n_f32(b);
    for (int c = 0; c < 8; ++c) vst1q_f32(d + 4 * c, vaddq_f32(vld1q_f32(a + 4 * c), bv));
  }

  static void sub(float* d, const float* a, const float* b) {
    for (int c = 0; c < 8; ++c) {
      vst1q_f32(d + 4 * c, vsubq_f32(vld1q_f32(a + 4 * c), vld1q_f32(b + 4 * c)));
    }
  }

  static void mul(float* d, const float* a, const float* b) {
    for (int c = 0; c < 8; ++c) {
      vst1q_f32(d + 4 * c, vmulq_f32(vld1q_f32(a + 4 * c), vld1q_f32(b + 4 * c)));
    }
  }

  static void mul_s(float* d, const float* a, float b) {
    const float32x4_t bv = vdupq_n_f32(b);
    for (int c = 0; c < 8; ++c) vst1q_f32(d + 4 * c, vmulq_f32(vld1q_f32(a + 4 * c), bv));
  }

  // Separate mul + add (never vmlaq/vfmaq): bit parity with the unfused
  // scalar reference.
  static void mad(float* d, const float* a, const float* b, const float* c3) {
    for (int c = 0; c < 8; ++c) {
      vst1q_f32(d + 4 * c, vaddq_f32(vmulq_f32(vld1q_f32(a + 4 * c), vld1q_f32(b + 4 * c)),
                                     vld1q_f32(c3 + 4 * c)));
    }
  }

  static void mad_s(float* d, const float* a, float b, const float* c3) {
    const float32x4_t bv = vdupq_n_f32(b);
    for (int c = 0; c < 8; ++c) {
      vst1q_f32(d + 4 * c, vaddq_f32(vmulq_f32(vld1q_f32(a + 4 * c), bv), vld1q_f32(c3 + 4 * c)));
    }
  }

  static void affine(float* d, const float* x, float scale, float offset) {
    const float32x4_t sv = vdupq_n_f32(scale);
    const float32x4_t ov = vdupq_n_f32(offset);
    for (int c = 0; c < 8; ++c) {
      vst1q_f32(d + 4 * c, vaddq_f32(vmulq_f32(vld1q_f32(x + 4 * c), sv), ov));
    }
  }

  static void clamp(float* d, const float* x, float lo, float hi) {
    const float32x4_t lov = vdupq_n_f32(lo);
    const float32x4_t hiv = vdupq_n_f32(hi);
    for (int c = 0; c < 8; ++c) {
      float32x4_t v = vld1q_f32(x + 4 * c);
      v = vbslq_f32(vcltq_f32(v, lov), lov, v);
      v = vbslq_f32(vcgtq_f32(v, hiv), hiv, v);
      vst1q_f32(d + 4 * c, v);
    }
  }

  static void ge_s(int* d, const float* a, float b) {
    const float32x4_t bv = vdupq_n_f32(b);
    const uint32x4_t one = vdupq_n_u32(1);
    for (int c = 0; c < 8; ++c) {
      const uint32x4_t m = vcgeq_f32(vld1q_f32(a + 4 * c), bv);
      vst1q_s32(d + 4 * c, vreinterpretq_s32_u32(vandq_u32(m, one)));
    }
  }

  static void lt_s(int* d, const float* a, float b) {
    const float32x4_t bv = vdupq_n_f32(b);
    const uint32x4_t one = vdupq_n_u32(1);
    for (int c = 0; c < 8; ++c) {
      const uint32x4_t m = vcltq_f32(vld1q_f32(a + 4 * c), bv);
      vst1q_s32(d + 4 * c, vreinterpretq_s32_u32(vandq_u32(m, one)));
    }
  }

  static void select(float* d, const int* pred, const float* a, const float* b) {
    for (int c = 0; c < 8; ++c) {
      const uint32x4_t nonzero = vtstq_s32(vld1q_s32(pred + 4 * c), vld1q_s32(pred + 4 * c));
      vst1q_f32(d + 4 * c, vbslq_f32(nonzero, vld1q_f32(a + 4 * c), vld1q_f32(b + 4 * c)));
    }
  }
};

template <>
struct LaneOps<std::int32_t> : RefOps<std::int32_t> {
  using T = std::int32_t;

  static void splat(T* d, T v) {
    const int32x4_t s = vdupq_n_s32(v);
    for (int c = 0; c < 8; ++c) vst1q_s32(d + 4 * c, s);
  }

  static void iota(T* d, T base, T step) {
    const int32x4_t sv = vdupq_n_s32(step);
    const int32x4_t bv = vdupq_n_s32(base);
    static const std::int32_t kRamp[4] = {0, 1, 2, 3};
    int32x4_t r = vld1q_s32(kRamp);
    const int32x4_t four = vdupq_n_s32(4);
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vaddq_s32(vmulq_s32(r, sv), bv));
      r = vaddq_s32(r, four);
    }
  }

  static void add(T* d, const T* a, const T* b) {
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vaddq_s32(vld1q_s32(a + 4 * c), vld1q_s32(b + 4 * c)));
    }
  }

  static void add_s(T* d, const T* a, T b) {
    const int32x4_t bv = vdupq_n_s32(b);
    for (int c = 0; c < 8; ++c) vst1q_s32(d + 4 * c, vaddq_s32(vld1q_s32(a + 4 * c), bv));
  }

  static void sub(T* d, const T* a, const T* b) {
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vsubq_s32(vld1q_s32(a + 4 * c), vld1q_s32(b + 4 * c)));
    }
  }

  static void mul(T* d, const T* a, const T* b) {
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vmulq_s32(vld1q_s32(a + 4 * c), vld1q_s32(b + 4 * c)));
    }
  }

  static void mul_s(T* d, const T* a, T b) {
    const int32x4_t bv = vdupq_n_s32(b);
    for (int c = 0; c < 8; ++c) vst1q_s32(d + 4 * c, vmulq_s32(vld1q_s32(a + 4 * c), bv));
  }

  static void mad(T* d, const T* a, const T* b, const T* c3) {
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vaddq_s32(vmulq_s32(vld1q_s32(a + 4 * c), vld1q_s32(b + 4 * c)),
                                     vld1q_s32(c3 + 4 * c)));
    }
  }

  static void mad_s(T* d, const T* a, T b, const T* c3) {
    const int32x4_t bv = vdupq_n_s32(b);
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vaddq_s32(vmulq_s32(vld1q_s32(a + 4 * c), bv), vld1q_s32(c3 + 4 * c)));
    }
  }

  static void affine(T* d, const T* x, T scale, T offset) {
    const int32x4_t sv = vdupq_n_s32(scale);
    const int32x4_t ov = vdupq_n_s32(offset);
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vaddq_s32(vmulq_s32(vld1q_s32(x + 4 * c), sv), ov));
    }
  }

  static void clamp(T* d, const T* x, T lo, T hi) {
    const int32x4_t lov = vdupq_n_s32(lo);
    const int32x4_t hiv = vdupq_n_s32(hi);
    for (int c = 0; c < 8; ++c) {
      vst1q_s32(d + 4 * c, vminq_s32(vmaxq_s32(vld1q_s32(x + 4 * c), lov), hiv));
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const int32x4_t bv = vdupq_n_s32(b);
    const uint32x4_t one = vdupq_n_u32(1);
    for (int c = 0; c < 8; ++c) {
      const uint32x4_t m = vcgeq_s32(vld1q_s32(a + 4 * c), bv);
      vst1q_s32(d + 4 * c, vreinterpretq_s32_u32(vandq_u32(m, one)));
    }
  }

  static void lt_s(int* d, const T* a, T b) {
    const int32x4_t bv = vdupq_n_s32(b);
    const uint32x4_t one = vdupq_n_u32(1);
    for (int c = 0; c < 8; ++c) {
      const uint32x4_t m = vcltq_s32(vld1q_s32(a + 4 * c), bv);
      vst1q_s32(d + 4 * c, vreinterpretq_s32_u32(vandq_u32(m, one)));
    }
  }

  static void logical_and(int* d, const int* a, const int* b) {
    const uint32x4_t one = vdupq_n_u32(1);
    for (int c = 0; c < 8; ++c) {
      const int32x4_t av = vld1q_s32(a + 4 * c);
      const int32x4_t bv = vld1q_s32(b + 4 * c);
      const uint32x4_t both = vandq_u32(vtstq_s32(av, av), vtstq_s32(bv, bv));
      vst1q_s32(d + 4 * c, vreinterpretq_s32_u32(vandq_u32(both, one)));
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    for (int c = 0; c < 8; ++c) {
      const uint32x4_t nonzero = vtstq_s32(vld1q_s32(pred + 4 * c), vld1q_s32(pred + 4 * c));
      vst1q_s32(d + 4 * c, vbslq_s32(nonzero, vld1q_s32(a + 4 * c), vld1q_s32(b + 4 * c)));
    }
  }

  static bool all_nonzero(const int* p) {
    uint32x4_t all = vdupq_n_u32(0xffffffffu);
    for (int c = 0; c < 8; ++c) {
      const int32x4_t v = vld1q_s32(p + 4 * c);
      all = vandq_u32(all, vtstq_s32(v, v));
    }
    return vminvq_u32(all) == 0xffffffffu;
  }

  static bool unit_stride(const T* idx) {
    const int32x4_t i0 = vdupq_n_s32(idx[0]);
    static const std::int32_t kRamp[4] = {0, 1, 2, 3};
    int32x4_t r = vld1q_s32(kRamp);
    const int32x4_t four = vdupq_n_s32(4);
    uint32x4_t all = vdupq_n_u32(0xffffffffu);
    for (int c = 0; c < 8; ++c) {
      all = vandq_u32(all, vceqq_s32(vld1q_s32(idx + 4 * c), vaddq_s32(i0, r)));
      r = vaddq_s32(r, four);
    }
    return vminvq_u32(all) == 0xffffffffu;
  }
};

inline constexpr const char* kBackendName = "neon";

}  // namespace ssam::sim::simd
