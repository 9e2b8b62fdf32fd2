// Tests for src/kernels: fast-math error bounds (the paper's Sec. IV-E
// claims), the deterministic exp every engine shares, metric identities,
// Cholesky/Mahalanobis equivalence (Sec. IV-D), and Gaussian kernel behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/batch.h"
#include "kernels/fastmath.h"
#include "kernels/gaussian.h"
#include "kernels/linalg.h"
#include "kernels/metrics.h"
#include "util/rng.h"

namespace portal {
namespace {

TEST(FastMath, InvSqrtErrorWithinPaperBound) {
  // Sec. IV-E quotes ~0.17% error for the fast inverse square root; our
  // one-Newton-step double version must stay within 0.2% across magnitudes.
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-6, 6));
    const double approx = fast_inv_sqrt(x);
    const double exact = 1.0 / std::sqrt(x);
    EXPECT_NEAR(approx / exact, 1.0, 2e-3) << "x=" << x;
  }
}

TEST(FastMath, SafeSqrtHandlesZero) {
  // The paper picks 1/(1/rsqrt(x)) precisely because it returns 0 at x = 0
  // while x * rsqrt(x) returns NaN.
  EXPECT_EQ(fast_sqrt(0.0), 0.0);
  EXPECT_TRUE(std::isnan(fast_sqrt_unsafe(0.0)));
}

TEST(FastMath, SqrtVariantsAgreeAwayFromZero) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(1e-3, 1e6);
    EXPECT_NEAR(fast_sqrt(x) / std::sqrt(x), 1.0, 2e-3);
    EXPECT_NEAR(fast_sqrt_unsafe(x) / std::sqrt(x), 1.0, 2e-3);
  }
}

TEST(FastMath, PowIntExactForSmallExponents) {
  EXPECT_DOUBLE_EQ(pow_int(3.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(pow_int(3.0, 1), 3.0);
  EXPECT_DOUBLE_EQ(pow_int(3.0, 2), 9.0);
  EXPECT_DOUBLE_EQ(pow_int(3.0, 3), 27.0);
  EXPECT_DOUBLE_EQ(pow_int(2.0, 10), 1024.0);
  EXPECT_DOUBLE_EQ(pow_int(-2.0, 3), -8.0);
}

TEST(FastMath, PowIntNegativeExponents) {
  // Regression: pow_int used to return 1 for every negative exponent because
  // the square-and-multiply loop guard `n > 0` was false on entry.
  EXPECT_DOUBLE_EQ(pow_int(2.0, -1), 0.5);
  EXPECT_DOUBLE_EQ(pow_int(2.0, -2), 0.25);
  EXPECT_DOUBLE_EQ(pow_int(2.0, -3), 0.125);
  EXPECT_DOUBLE_EQ(pow_int(-2.0, -3), -0.125);
  EXPECT_DOUBLE_EQ(pow_int(10.0, -2), 0.01);
  EXPECT_DOUBLE_EQ(pow_int(0.5, -3), 8.0);
  // The full n in {-3..3} sweep against std::pow.
  for (int n = -3; n <= 3; ++n) {
    EXPECT_DOUBLE_EQ(pow_int(1.5, n), std::pow(1.5, n)) << "n=" << n;
    EXPECT_DOUBLE_EQ(pow_int(-1.5, n), std::pow(-1.5, n)) << "n=" << n;
  }
}

TEST(FastMath, InvSqrtEdgeCasesDouble) {
  // Regression: the bit-trick produced garbage (not NaN) for x < 0, and the
  // Newton step overflowed for denormal inputs. The contract now matches
  // hardware rsqrt: NaN for negatives, +inf for zero and denormals (flush-
  // to-zero semantics), 0 for +inf, and NaN propagates.
  EXPECT_TRUE(std::isnan(fast_inv_sqrt(-1.0)));
  EXPECT_TRUE(std::isnan(fast_inv_sqrt(-0.25)));
  EXPECT_TRUE(std::isnan(fast_inv_sqrt(-std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(fast_inv_sqrt(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(fast_inv_sqrt(0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(fast_inv_sqrt(std::numeric_limits<double>::denorm_min()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(fast_inv_sqrt(0.5 * std::numeric_limits<double>::min()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(fast_inv_sqrt(std::numeric_limits<double>::infinity()), 0.0);
  // Smallest normal still goes through the approximation path.
  const double tiny = std::numeric_limits<double>::min();
  EXPECT_NEAR(fast_inv_sqrt(tiny) / (1.0 / std::sqrt(tiny)), 1.0, 2e-3);
}

TEST(FastMath, InvSqrtEdgeCasesFloat) {
  EXPECT_TRUE(std::isnan(fast_inv_sqrt(-1.0f)));
  EXPECT_TRUE(std::isnan(fast_inv_sqrt(-std::numeric_limits<float>::infinity())));
  EXPECT_TRUE(std::isnan(fast_inv_sqrt(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(fast_inv_sqrt(0.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(fast_inv_sqrt(std::numeric_limits<float>::denorm_min()),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(fast_inv_sqrt(std::numeric_limits<float>::infinity()), 0.0f);
  const float tiny = std::numeric_limits<float>::min();
  EXPECT_NEAR(fast_inv_sqrt(tiny) * std::sqrt(tiny), 1.0f, 2e-3f);
  EXPECT_NEAR(fast_inv_sqrt(4.0f), 0.5f, 2e-3f);
}

TEST(Metrics, KnownValues) {
  const real_t a[3] = {0, 0, 0};
  const real_t b[3] = {3, 4, 0};
  EXPECT_DOUBLE_EQ(SqEuclideanMetric::eval(a, 1, b, 1, 3), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanMetric::eval(a, 1, b, 1, 3), 5.0);
  EXPECT_DOUBLE_EQ(ManhattanMetric::eval(a, 1, b, 1, 3), 7.0);
  EXPECT_DOUBLE_EQ(ChebyshevMetric::eval(a, 1, b, 1, 3), 4.0);
}

TEST(Metrics, StridedAccessMatchesContiguous) {
  // Column-major layout: coordinates are `n` apart.
  const real_t col[6] = {0, 3, 0, 4, 0, 0}; // 2 points, 3 dims, n = 2
  const real_t a[3] = {0, 0, 0};
  const real_t b[3] = {3, 4, 0};
  EXPECT_DOUBLE_EQ(SqEuclideanMetric::eval(col + 0, 2, col + 1, 2, 3),
                   SqEuclideanMetric::eval(a, 1, b, 1, 3));
  EXPECT_DOUBLE_EQ(ManhattanMetric::eval(col + 0, 2, col + 1, 2, 3), 7.0);
}

TEST(Metrics, MetricAxioms) {
  Rng rng(3);
  std::vector<real_t> x(8), y(8), z(8);
  for (int trial = 0; trial < 200; ++trial) {
    for (int d = 0; d < 8; ++d) {
      x[d] = rng.uniform(-5, 5);
      y[d] = rng.uniform(-5, 5);
      z[d] = rng.uniform(-5, 5);
    }
    for (MetricKind kind : {MetricKind::Euclidean, MetricKind::Manhattan,
                            MetricKind::Chebyshev}) {
      const real_t dxy = point_distance(kind, x.data(), 1, y.data(), 1, 8);
      const real_t dyx = point_distance(kind, y.data(), 1, x.data(), 1, 8);
      const real_t dxx = point_distance(kind, x.data(), 1, x.data(), 1, 8);
      const real_t dxz = point_distance(kind, x.data(), 1, z.data(), 1, 8);
      const real_t dzy = point_distance(kind, z.data(), 1, y.data(), 1, 8);
      EXPECT_NEAR(dxy, dyx, 1e-12); // symmetry
      EXPECT_NEAR(dxx, 0.0, 1e-12); // identity
      EXPECT_LE(dxy, dxz + dzy + 1e-9); // triangle inequality
    }
  }
}

TEST(Linalg, CholeskyReconstructs) {
  // A = L L^T for a hand-built SPD matrix.
  const index_t m = 3;
  const std::vector<real_t> a = {4, 2, 1, 2, 5, 3, 1, 3, 6};
  const std::vector<real_t> l = cholesky(a, m);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < m; ++j) {
      real_t sum = 0;
      for (index_t k = 0; k < m; ++k) sum += l[i * m + k] * l[j * m + k];
      EXPECT_NEAR(sum, a[i * m + j], 1e-12);
    }
  // Upper triangle of L is zero.
  EXPECT_DOUBLE_EQ(l[0 * m + 1], 0);
  EXPECT_DOUBLE_EQ(l[0 * m + 2], 0);
  EXPECT_DOUBLE_EQ(l[1 * m + 2], 0);
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  const std::vector<real_t> not_spd = {1, 2, 2, 1}; // eigenvalues 3, -1
  EXPECT_THROW(cholesky(not_spd, 2), std::domain_error);
}

TEST(Linalg, TriangularSolves) {
  const index_t m = 3;
  const std::vector<real_t> a = {4, 2, 1, 2, 5, 3, 1, 3, 6};
  const std::vector<real_t> l = cholesky(a, m);
  const real_t b[3] = {1, 2, 3};
  real_t y[3], x[3];
  forward_substitute(l, m, b, y);
  // Check L y = b.
  for (index_t i = 0; i < m; ++i) {
    real_t sum = 0;
    for (index_t k = 0; k <= i; ++k) sum += l[i * m + k] * y[k];
    EXPECT_NEAR(sum, b[i], 1e-12);
  }
  backward_substitute(l, m, y, x);
  // Now A x = b.
  for (index_t i = 0; i < m; ++i) {
    real_t sum = 0;
    for (index_t k = 0; k < m; ++k) sum += a[i * m + k] * x[k];
    EXPECT_NEAR(sum, b[i], 1e-10);
  }
}

TEST(Linalg, SpdInverse) {
  const index_t m = 3;
  const std::vector<real_t> a = {4, 2, 1, 2, 5, 3, 1, 3, 6};
  const std::vector<real_t> inv = spd_inverse(a, m);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < m; ++j) {
      real_t sum = 0;
      for (index_t k = 0; k < m; ++k) sum += a[i * m + k] * inv[k * m + j];
      EXPECT_NEAR(sum, i == j ? 1.0 : 0.0, 1e-10);
    }
}

TEST(Linalg, LogDet) {
  const index_t m = 2;
  const std::vector<real_t> a = {3, 1, 1, 2}; // det = 5
  const std::vector<real_t> l = cholesky(a, m);
  EXPECT_NEAR(log_det_from_cholesky(l, m), std::log(5.0), 1e-12);
}

/// The Sec. IV-D numerical optimization: the Cholesky + forward-substitution
/// Mahalanobis path must agree with the explicit-inverse quadratic form on
/// random SPD matrices and random points.
TEST(Linalg, MahalanobisCholeskyMatchesNaive) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const index_t m = 2 + static_cast<index_t>(rng.uniform_index(6));
    // Random SPD: B B^T + m I.
    std::vector<real_t> b(m * m), a(m * m, 0);
    for (real_t& v : b) v = rng.uniform(-1, 1);
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < m; ++j) {
        for (index_t k = 0; k < m; ++k) a[i * m + j] += b[i * m + k] * b[j * m + k];
        if (i == j) a[i * m + j] += m;
      }
    const std::vector<real_t> l = cholesky(a, m);
    const std::vector<real_t> inv = spd_inverse(a, m);
    std::vector<real_t> x(m), mu(m), scratch(2 * m);
    for (index_t d = 0; d < m; ++d) {
      x[d] = rng.uniform(-3, 3);
      mu[d] = rng.uniform(-3, 3);
    }
    const real_t fast = mahalanobis_sq_cholesky(x.data(), mu.data(), l, m,
                                                scratch.data());
    const real_t naive = mahalanobis_sq_naive(x.data(), mu.data(), inv, m);
    EXPECT_NEAR(fast, naive, 1e-9 * std::max(real_t(1), std::abs(naive)));
    EXPECT_GE(fast, 0.0);
  }
}

TEST(Linalg, CovarianceOfKnownData) {
  // Two dimensions, perfectly correlated.
  const Dataset data = Dataset::from_points({{0, 0}, {1, 1}, {2, 2}});
  const std::vector<real_t> mean = column_mean(data);
  EXPECT_DOUBLE_EQ(mean[0], 1.0);
  EXPECT_DOUBLE_EQ(mean[1], 1.0);
  const std::vector<real_t> cov = covariance(data, mean, 0);
  EXPECT_NEAR(cov[0], 1.0, 1e-12);
  EXPECT_NEAR(cov[1], 1.0, 1e-12);
  EXPECT_NEAR(cov[3], 1.0, 1e-12);
}

TEST(MahalanobisContext, EigBoundsSandwichQuadraticForm) {
  Rng rng(6);
  const index_t m = 4;
  std::vector<real_t> b(m * m), a(m * m, 0);
  for (real_t& v : b) v = rng.uniform(-1, 1);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < m; ++j) {
      for (index_t k = 0; k < m; ++k) a[i * m + j] += b[i * m + k] * b[j * m + k];
      if (i == j) a[i * m + j] += 1;
    }
  const MahalanobisContext ctx(a, m);
  EXPECT_GT(ctx.eig_min(), 0.0);
  EXPECT_GE(ctx.eig_max(), ctx.eig_min());

  std::vector<real_t> x(m), y(m), scratch(2 * m);
  for (int trial = 0; trial < 200; ++trial) {
    real_t sq_l2 = 0;
    for (index_t d = 0; d < m; ++d) {
      x[d] = rng.uniform(-2, 2);
      y[d] = rng.uniform(-2, 2);
      const real_t diff = x[d] - y[d];
      sq_l2 += diff * diff;
    }
    const real_t maha = ctx.sq_dist(x.data(), y.data(), scratch.data());
    EXPECT_GE(maha, ctx.eig_min() * sq_l2 - 1e-9);
    EXPECT_LE(maha, ctx.eig_max() * sq_l2 + 1e-9);
  }
}

TEST(Gaussian, KernelMonotoneDecreasing) {
  const GaussianKernel kernel(2.0);
  EXPECT_DOUBLE_EQ(kernel.eval_sq(0), 1.0);
  real_t prev = kernel.eval_sq(0);
  for (real_t sq = 0.5; sq < 50; sq += 0.5) {
    const real_t value = kernel.eval_sq(sq);
    EXPECT_LT(value, prev);
    prev = value;
  }
}

TEST(Gaussian, LogPdfMatchesClosedForm1D) {
  // 1-D: log N(x | mu, v) = -0.5 (log(2 pi v) + (x-mu)^2 / v).
  const MahalanobisContext ctx({4.0}, 1); // variance 4
  real_t scratch[2];
  const real_t x = 3, mu = 1;
  const real_t expected =
      -0.5 * (std::log(kTwoPi * 4.0) + (x - mu) * (x - mu) / 4.0);
  EXPECT_NEAR(log_gaussian_pdf(&x, &mu, ctx, scratch), expected, 1e-12);
  EXPECT_NEAR(log_gaussian_pdf_naive(&x, &mu, ctx), expected, 1e-12);
}

TEST(Gaussian, BatchedSumIsBitwiseEqualToOrderedLanes) {
  // The chunked exp-accumulate used by the batched KDE base case must equal
  // gaussian_sq lanes summed in ascending order, bit for bit, and each
  // vectorized lane must equal the scalar det_exp -- the contract that keeps
  // the batched and scalar KDE leaves bitwise-identical.
  Rng rng(99);
  for (const index_t count : {index_t(1), index_t(15), index_t(16), index_t(33),
                              index_t(64), index_t(65), index_t(130)}) {
    std::vector<real_t> sq(count), vals(count);
    for (real_t& v : sq) v = rng.uniform(0.0, 9.0);
    const real_t c = 0.37;
    batch::gaussian_sq(sq.data(), count, c, vals.data());
    real_t ordered = 0;
    for (index_t j = 0; j < count; ++j) {
      EXPECT_EQ(vals[j], det_exp(-sq[j] * c)) << "lane " << j;
      ordered += vals[j];
    }
    EXPECT_EQ(batch::gaussian_sq_sum(sq.data(), count, c), ordered);
  }
}

/// Distance in units in the last place between two non-negative doubles
/// (every exp result is >= 0, so the bit patterns order like the values).
std::uint64_t ulp_distance(double a, double b) {
  std::uint64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  return ia > ib ? ia - ib : ib - ia;
}

/// det_exp against libm over [lo, hi] in `steps` equal steps: returns the
/// largest ulp distance and fails on any downward step (the sweep ascends).
std::uint64_t sweep_max_ulps(double lo, double hi, long steps) {
  std::uint64_t worst = 0;
  double prev = 0;
  for (long i = 0; i <= steps; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(steps);
    const double got = det_exp(x);
    worst = std::max(worst, ulp_distance(got, std::exp(x)));
    EXPECT_GE(got, prev) << "downward step at x = " << x;
    prev = got;
  }
  return worst;
}

TEST(FastExp, DenseSweepWithinOneUlpOfLibm) {
  // Normal results: the whole finite range above the subnormal threshold
  // (exp(-708.3964) is the smallest normal), plus a dense sweep near 0
  // where the reduction leaves k = 0.
  EXPECT_LE(sweep_max_ulps(-708.39, 709.78, 4000000), 1u);
  EXPECT_LE(sweep_max_ulps(-0.75, 0.75, 1000000), 1u);
  EXPECT_LE(sweep_max_ulps(-1e-6, 1e-6, 100000), 1u);
}

TEST(FastExp, SubnormalResultsWithinOneUlpOfLibm) {
  // Subnormal results: the 2^k scale is applied in two halves so the final
  // product rounds once; the bound is 1 ulp of the subnormal spacing
  // (2^-1074), the same as for normal results.
  EXPECT_LE(sweep_max_ulps(-745.133, -708.40, 1000000), 1u);
}

TEST(FastExp, EdgeCasesAreExact) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(det_exp(0.0), 1.0);
  EXPECT_EQ(det_exp(-0.0), 1.0);
  EXPECT_EQ(det_exp(-kInf), 0.0);
  EXPECT_FALSE(std::signbit(det_exp(-kInf)));
  EXPECT_EQ(det_exp(kInf), kInf);
  EXPECT_TRUE(std::isnan(det_exp(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(det_exp(-std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(det_exp(std::numeric_limits<double>::denorm_min()), 1.0);
  EXPECT_EQ(det_exp(-std::numeric_limits<double>::denorm_min()), 1.0);

  // Overflow threshold: the largest x with a finite exp(x) (fdlibm's
  // o_threshold) gives the libm value; the next double up is inf.
  const double o_threshold = 7.09782712893383973096e+02;
  EXPECT_EQ(det_exp(o_threshold), std::exp(o_threshold));
  EXPECT_LT(det_exp(o_threshold), kInf);
  EXPECT_EQ(det_exp(std::nextafter(o_threshold, kInf)), kInf);
  EXPECT_EQ(det_exp(710.0), kInf);
  EXPECT_EQ(det_exp(1e300), kInf);
  EXPECT_EQ(det_exp(std::numeric_limits<double>::max()), kInf);

  // Underflow threshold: the smallest x with a non-zero exp(x) (fdlibm's
  // u_threshold) gives the smallest subnormal; the next double down is 0.
  const double u_threshold = -7.45133219101941108420e+02;
  EXPECT_EQ(det_exp(u_threshold), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(det_exp(std::nextafter(u_threshold, -kInf)), 0.0);
  EXPECT_EQ(det_exp(-746.0), 0.0);
  EXPECT_EQ(det_exp(-1e300), 0.0);
  EXPECT_EQ(det_exp(std::numeric_limits<double>::lowest()), 0.0);

  // The smallest normal result.
  const double normal_threshold = -7.08396418532264106224e+02;
  EXPECT_EQ(det_exp(normal_threshold), std::exp(normal_threshold));
}

TEST(FastExp, MonotoneAcrossEveryReductionBoundary) {
  // k switches where x / ln2 crosses a half-integer; the polynomial then
  // meets the next binade from the other end of its interval. Walk 64 ulps
  // either side of every boundary in the finite range: no downward step.
  const double ln2 = 0.69314718055994530942;
  for (int k = -1076; k <= 1024; ++k) {
    double x = (k + 0.5) * ln2;
    for (int s = 0; s < 64; ++s) x = std::nextafter(x, -1e308);
    double prev = det_exp(x);
    for (int s = 0; s < 128; ++s) {
      x = std::nextafter(x, 1e308);
      const double value = det_exp(x);
      ASSERT_GE(value, prev) << "downward step at x = " << x << " (k = " << k << ")";
      prev = value;
    }
  }
}

} // namespace
} // namespace portal
