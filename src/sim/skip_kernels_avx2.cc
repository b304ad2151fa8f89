// AVX2 forms of the skip kernels (skip_kernels.h): four streams'
// generators step in lockstep 64-bit lanes.
//
// This translation unit is compiled with -mavx2 (src/sim/CMakeLists.txt)
// and is entered only through skip_kernels.cc's drivers, which check
// SkipLanesAvailable() first. Keep it free of inline functions shared with
// other translation units and of standard-library templates: an
// out-of-line copy compiled here with AVX2 could be the one the linker
// keeps for the whole program. It uses nothing from skip_kernels.h but the
// ActivityLane struct.
//
// Each lane takes the scalar generator's xoshiro256** step
// (common/rng.h XoshiroNext); the multiplies by 5 and 9 are shift-and-adds.
// A uniform's 53 bits become the double Rng::Uniform() makes, exactly, so
// Knuth's product, one IEEE multiply per draw in either form, rounds the
// same in a lane as in scalar code. The Bernoulli compares the 53 bits
// with an integer threshold, which BernoulliThreshold makes exact.
#include <immintrin.h>

#include <cstdint>

#include "sim/skip_kernels.h"

namespace eventhit::sim::detail {
namespace {

struct Lanes {
  __m256i s0, s1, s2, s3;
};

Lanes Load(const uint64_t* words) {
  return {_mm256_load_si256(reinterpret_cast<const __m256i*>(words)),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(words + 4)),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(words + 8)),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(words + 12))};
}

void Store(const Lanes& s, uint64_t* words) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(words), s.s0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words + 4), s.s1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words + 8), s.s2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words + 12), s.s3);
}

template <int kBits>
inline __m256i Rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, kBits),
                         _mm256_srli_epi64(x, 64 - kBits));
}

// One step of every lane, output discarded.
inline void Advance(Lanes& s) {
  const __m256i t = _mm256_slli_epi64(s.s1, 17);
  s.s2 = _mm256_xor_si256(s.s2, s.s0);
  s.s3 = _mm256_xor_si256(s.s3, s.s1);
  s.s1 = _mm256_xor_si256(s.s1, s.s2);
  s.s0 = _mm256_xor_si256(s.s0, s.s3);
  s.s2 = _mm256_xor_si256(s.s2, t);
  s.s3 = Rotl<45>(s.s3);
}

// One step of every lane; returns each lane's 53 uniform bits
// (output >> 11).
inline __m256i NextBits(Lanes& s) {
  const __m256i x5 = _mm256_add_epi64(s.s1, _mm256_slli_epi64(s.s1, 2));
  const __m256i r = Rotl<7>(x5);
  const __m256i out = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
  Advance(s);
  return _mm256_srli_epi64(out, 11);
}

// bits * 2^-53 for bits < 2^53, exactly: the high 21 and the low 32 bits
// convert through the exponents of 2^84 and 2^52, and their sum is exact
// because it fits a double's mantissa.
inline __m256d Units(__m256i bits) {
  const __m256i hi = _mm256_srli_epi64(bits, 32);
  const __m256i lo = _mm256_blend_epi32(bits, _mm256_setzero_si256(), 0xAA);
  const __m256d hi_d = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(hi, _mm256_set1_epi64x(0x4530000000000000LL))),
      _mm256_set1_pd(0x1.0p84));
  const __m256d lo_d = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(lo, _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52));
  return _mm256_mul_pd(_mm256_add_pd(hi_d, lo_d), _mm256_set1_pd(0x1.0p-53));
}

inline Lanes Blend(const Lanes& a, const Lanes& b, __m256i take_b) {
  return {_mm256_blendv_epi8(a.s0, b.s0, take_b),
          _mm256_blendv_epi8(a.s1, b.s1, take_b),
          _mm256_blendv_epi8(a.s2, b.s2, take_b),
          _mm256_blendv_epi8(a.s3, b.s3, take_b)};
}

inline bool Any(__m256i mask) { return !_mm256_testz_si256(mask, mask); }

// All-ones where the lane's Poisson count does not run Knuth's loop.
long long OutsideKnuth(double mean) {
  return mean > 0.0 && mean <= 64.0 ? 0 : -1;
}

}  // namespace

int64_t SkipGaussianLanesAvx2(uint64_t* words, int64_t frames) {
  const __m256i zero = _mm256_setzero_si256();
  Lanes s = Load(words);
  int64_t f = 0;
  for (; f < frames; ++f) {
    Lanes next = s;
    if (Any(_mm256_cmpeq_epi64(NextBits(next), zero))) break;
    Advance(next);
    s = next;
  }
  Store(s, words);
  return f;
}

int64_t SkipActivityLanesAvx2(uint64_t* words, int64_t frames,
                              const ActivityLane* lanes) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i threshold = _mm256_set_epi64x(
      static_cast<long long>(lanes[3].threshold),
      static_cast<long long>(lanes[2].threshold),
      static_cast<long long>(lanes[1].threshold),
      static_cast<long long>(lanes[0].threshold));
  __m256d limit[2];
  __m256i outside[2];
  for (int b = 0; b < 2; ++b) {
    limit[b] = _mm256_set_pd(lanes[3].limit[b], lanes[2].limit[b],
                             lanes[1].limit[b], lanes[0].limit[b]);
    outside[b] = _mm256_set_epi64x(
        OutsideKnuth(lanes[3].mean[b]), OutsideKnuth(lanes[2].mean[b]),
        OutsideKnuth(lanes[1].mean[b]), OutsideKnuth(lanes[0].mean[b]));
  }
  Lanes s = Load(words);
  int64_t f = 0;
  for (; f < frames; ++f) {
    Lanes next = s;
    const __m256i success = _mm256_cmpgt_epi64(threshold, NextBits(next));
    const __m256i retry = _mm256_cmpeq_epi64(NextBits(next), zero);
    if (Any(_mm256_or_si256(
            retry, _mm256_blendv_epi8(outside[1], outside[0], success)))) {
      break;
    }
    Advance(next);
    const __m256d lane_limit = _mm256_blendv_pd(
        limit[1], limit[0], _mm256_castsi256_pd(success));
    // Knuth's loop: every lane draws once, then the lanes whose product is
    // still above their limit draw again, the others keep their state.
    __m256d product = Units(NextBits(next));
    __m256i live = _mm256_castpd_si256(
        _mm256_cmp_pd(product, lane_limit, _CMP_GT_OQ));
    while (Any(live)) {
      Lanes drawn = next;
      const __m256d more = _mm256_mul_pd(product, Units(NextBits(drawn)));
      product = _mm256_blendv_pd(product, more, _mm256_castsi256_pd(live));
      next = Blend(next, drawn, live);
      live = _mm256_and_si256(
          live, _mm256_castpd_si256(
                    _mm256_cmp_pd(product, lane_limit, _CMP_GT_OQ)));
    }
    s = next;
  }
  Store(s, words);
  return f;
}

}  // namespace eventhit::sim::detail
