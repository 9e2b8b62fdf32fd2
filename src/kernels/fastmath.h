// Portal -- strength-reduced math primitives (paper Sec. IV-E).
//
// The compiler's strength-reduction pass replaces long-latency operations:
//   * pow(x, k) with integer k < 4  ->  chained multiplication;
//   * 1/sqrt(x)                     ->  fast inverse square root (~0.17% err);
//   * sqrt(x)                       ->  1 / (1 / fast_inv_sqrt(x)), the
//     NaN-safe variant the paper chooses (x * rsqrt(x) is faster but yields
//     NaN at x = 0, while the reciprocal form yields the desired 0).
//
// det_exp extends the same idea to exp, the one libm call left in the
// Gaussian kernels: a branch-free form the compiler can vectorize, built
// only from correctly rounded +, -, *, / and integer bit operations, so
// every engine that evaluates it gets the same bits (DESIGN.md Sec. 10).
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>

#include "util/common.h"

namespace portal {

/// Quake-style fast inverse square root for doubles with one Newton-Raphson
/// refinement step. Relative error is below ~0.2% after the refinement, the
/// error bound the paper quotes for the LLVM intrinsic it uses. Edge cases
/// match 1/sqrt(x) semantics (the paper's NaN-safety argument, Sec. IV-E):
/// NaN for x < 0, +inf for 0, and 0 for +inf. Denormal inputs flush to +inf
/// like hardware rsqrt -- the bit trick's Newton step overflows there, so
/// treating them as zero is the accurate-to-spirit choice.
inline double fast_inv_sqrt(double x) {
  if (x != x) return x; // NaN propagates
  if (x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x < std::numeric_limits<double>::min())
    return std::numeric_limits<double>::infinity(); // 0 and denormals
  if (x == std::numeric_limits<double>::infinity()) return 0.0;
  double half = 0.5 * x;
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits = 0x5FE6EB50C7B537A9ULL - (bits >> 1);
  double y;
  std::memcpy(&y, &bits, sizeof(y));
  y = y * (1.5 - half * y * y); // one Newton step
  return y;
}

inline float fast_inv_sqrt(float x) {
  if (x != x) return x;
  if (x < 0.0f) return std::numeric_limits<float>::quiet_NaN();
  if (x < std::numeric_limits<float>::min())
    return std::numeric_limits<float>::infinity();
  if (x == std::numeric_limits<float>::infinity()) return 0.0f;
  float half = 0.5f * x;
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits = 0x5F375A86U - (bits >> 1);
  float y;
  std::memcpy(&y, &bits, sizeof(y));
  y = y * (1.5f - half * y * y);
  return y;
}

/// sqrt via the reciprocal of the fast inverse square root -- the paper's
/// 1/(1/sqrt(x)) form. Returns exactly 0 for x == 0 (1/inf == 0), unlike
/// x * fast_inv_sqrt(x) which returns NaN there.
inline real_t fast_sqrt(real_t x) { return real_t(1) / fast_inv_sqrt(x); }

/// The faster-but-unsafe variant (x * rsqrt(x)); kept for the strength
/// reduction ablation bench that quantifies the paper's Sec. IV-E choice.
inline real_t fast_sqrt_unsafe(real_t x) { return x * fast_inv_sqrt(x); }

/// exp(x) in the fdlibm e_exp form with its branches written as selects:
/// Cody-Waite reduction x = k ln2 + r (ln2 split hi/lo, k * hi exact for
/// |k| < 2^21), the rational approximation 1 - ((lo - r c / (2 - c)) - hi)
/// with c = r - r^2 P(r^2), and the 2^k scale applied in two halves so that
/// k in [-1076, 1024] needs no branch for overflow or subnormal results.
///
/// Contract (pinned by the FastExp suite): at most 1 ulp from libm's exp over
/// a dense sweep, normal and subnormal results alike; exp(+-0) == 1,
/// exp(-inf) == 0, exp(+inf) == inf, NaN propagates; exactly 0 below the
/// underflow threshold and inf above the overflow threshold; monotone
/// non-decreasing across every reduction boundary, which the dataflow ranges
/// rely on. No operation may be contracted into an FMA (-ffp-contract=off),
/// and the JIT prelude's portal_exp (core/codegen/jit.cpp) is an op-for-op
/// copy.
///
/// The input clamp to [-746, 710] (beyond which the result is already 0 or
/// inf) is done with compare masks on the bits rather than a ternary, so the
/// compiler keeps the function straight-line and vectorizes lane loops over
/// it on SSE4.2 and later.
inline double det_exp(double x) {
  constexpr double kInvLn2 = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0; // 1.5 * 2^52: round to int
  constexpr double kP1 = 1.66666666666666019037e-01;
  constexpr double kP2 = -2.77777777770155933842e-03;
  constexpr double kP3 = 6.61375632143793436117e-05;
  constexpr double kP4 = -1.65339022054652515390e-06;
  constexpr double kP5 = 4.13813679705723846039e-08;
  constexpr std::uint64_t kShiftBits = 0x4338000000000000ULL;
  constexpr std::uint64_t kLowClampBits = 0xC087500000000000ULL; // -746
  constexpr std::uint64_t kHighClampBits = 0x4086300000000000ULL; // 710

  std::uint64_t xb;
  std::memcpy(&xb, &x, sizeof(xb));
  const std::uint64_t under = 0 - static_cast<std::uint64_t>(x < -746.0);
  const std::uint64_t over = 0 - static_cast<std::uint64_t>(x > 710.0);
  xb = (xb & ~(under | over)) | (under & kLowClampBits) |
       (over & kHighClampBits);
  double xc;
  std::memcpy(&xc, &xb, sizeof(xc));

  const double shifted = xc * kInvLn2 + kShift; // k + 1.5 * 2^52
  const double k = shifted - kShift;
  const double hi = xc - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);

  // 2^k as 2^k1 * 2^k2 with k1 = round(k / 2): both halves stay normal, and
  // y * 2^k1 is exact, so the product rounds once.
  const double half = k * 0.5 + kShift;
  std::uint64_t kb, k1b;
  std::memcpy(&kb, &shifted, sizeof(kb));
  std::memcpy(&k1b, &half, sizeof(k1b));
  const std::uint64_t k1 = k1b - kShiftBits;
  const std::uint64_t k2 = (kb - kShiftBits) - k1;
  const std::uint64_t s1b = (k1 + 1023) << 52;
  const std::uint64_t s2b = (k2 + 1023) << 52;
  double s1, s2;
  std::memcpy(&s1, &s1b, sizeof(s1));
  std::memcpy(&s2, &s2b, sizeof(s2));
  return y * s1 * s2;
}

/// pow(x, n) for small integer n as chained multiplications. The
/// strength-reduction pass only fires for 0 <= n < 4 (paper), but the helper
/// handles any int n by square-and-multiply for completeness; negative
/// exponents are computed as 1 / pow_int(x, -n), so pow_int(0, -n) yields
/// inf exactly like std::pow.
inline real_t pow_int(real_t x, int n) {
  switch (n) {
    case 0: return real_t(1);
    case 1: return x;
    case 2: return x * x;
    case 3: return x * x * x;
    default: {
      // Magnitude as unsigned so n == INT_MIN does not overflow on negation.
      const bool negative = n < 0;
      unsigned int e = negative
                           ? 0u - static_cast<unsigned int>(n)
                           : static_cast<unsigned int>(n);
      real_t result = 1;
      real_t base = x;
      while (e > 0) {
        if (e & 1u) result *= base;
        base *= base;
        e >>= 1;
      }
      return negative ? real_t(1) / result : result;
    }
  }
}

} // namespace portal
