// Tests for src/kernels: fast-math error bounds (the paper's Sec. IV-E
// claims), the deterministic exp every engine shares, metric identities,
// Cholesky/Mahalanobis equivalence (Sec. IV-D), and Gaussian kernel behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/batch.h"
#include "kernels/fastmath.h"
#include "kernels/gaussian.h"
#include "kernels/linalg.h"
#include "kernels/metrics.h"
#include "tree/bbox.h"
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
  // the batched and scalar KDE leaves bitwise-identical. gaussian_sq_sum
  // reads whole lane blocks, so `sq` holds whole_blocks(count) reals; the
  // padding lanes are poisoned (NaN, +-Inf, 1e308), and any of them reaching
  // the sum would change it. Counts run past two 64-lane chunks, so the
  // partial third chunk's offset is covered too.
  Rng rng(99);
  const real_t poison[] = {std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::infinity(),
                           -std::numeric_limits<real_t>::infinity(), 1e308};
  for (index_t count = 1; count <= 140; ++count) {
    SCOPED_TRACE("count " + std::to_string(count));
    const index_t padded = batch::whole_blocks(count);
    std::vector<real_t> sq(padded), vals(count);
    for (index_t j = 0; j < count; ++j) sq[j] = rng.uniform(0.0, 9.0);
    for (index_t j = count; j < padded; ++j) sq[j] = poison[(j - count) % 4];
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

bool same_bits(real_t a, real_t b) {
  std::uint64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  return ia == ib;
}

// batch::gaussian_row_sums, the expert KDE's base-case kernel: every row's
// sum must be bitwise sq_dists + gaussian_sq of that row against the
// reference tile, then an ordered ascending-j sum. Row counts 0-17 and 31-33
// cross the lane blocks, reference counts 1-130 cross the 64-point chunks
// (the sums carry across them), and the reference tile starts inside its
// slice. The query block's padding lanes, the run and the sums past the real
// rows are poisoned (NaN, +-Inf, 1e308); none of it may reach a real row. A
// NaN coordinate of one query row must reach that row's sum only.
TEST(Gaussian, RowSumsAreBitwiseEqualToOrderedRows) {
  const real_t poison[] = {std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::infinity(),
                           -std::numeric_limits<real_t>::infinity(), 1e308};
  const real_t c = 0.61;
  Rng rng(2028);
  std::vector<index_t> row_counts;
  for (index_t k = 0; k <= 17; ++k) row_counts.push_back(k);
  for (const index_t k : {31, 32, 33}) row_counts.push_back(k);
  for (const index_t dim : {1, 2, 3, 5, 8}) {
    for (const index_t ref_count : {1, 7, 8, 9, 19, 20, 64, 65, 130}) {
      // The reference tile: points 3 .. 3 + ref_count of a slice of stride
      // ref_count + 5.
      const index_t stride = ref_count + 5;
      std::vector<real_t> ref_lanes(static_cast<std::size_t>(dim * stride));
      for (real_t& v : ref_lanes) v = rng.uniform(-1.5, 1.5);
      const batch::Tile ref{ref_lanes.data(), stride, 3, ref_count, dim};
      for (const index_t rows : row_counts) {
        for (const bool nan_row : {false, true}) {
          if (nan_row && rows == 0) continue;
          SCOPED_TRACE("dim " + std::to_string(dim) + " ref " +
                       std::to_string(ref_count) + " rows " +
                       std::to_string(rows) + (nan_row ? " nan row" : ""));
          const index_t lanes = batch::whole_blocks(rows);
          std::vector<real_t> block(static_cast<std::size_t>(dim * lanes));
          for (index_t d = 0; d < dim; ++d)
            for (index_t k = 0; k < lanes; ++k)
              block[d * lanes + k] =
                  k < rows ? rng.uniform(-1.5, 1.5) : poison[(k + d) % 4];
          const index_t bad_row = rows / 2;
          if (nan_row)
            block[(dim - 1) * lanes + bad_row] =
                std::numeric_limits<real_t>::quiet_NaN();
          std::vector<real_t> run(batch::row_sums_scratch(rows));
          std::vector<real_t> sums(lanes);
          for (std::size_t i = 0; i < run.size(); ++i) run[i] = poison[i % 4];
          for (std::size_t i = 0; i < sums.size(); ++i) sums[i] = poison[i % 4];
          const batch::Tile block_tile{block.data(), lanes, 0, rows, dim};
          batch::gaussian_row_sums(block_tile, ref, c, run.data(), sums.data());

          std::vector<real_t> qpt(dim), sq(ref_count), vals(ref_count);
          for (index_t k = 0; k < rows; ++k) {
            for (index_t d = 0; d < dim; ++d) qpt[d] = block[d * lanes + k];
            batch::sq_dists(ref, qpt.data(), sq.data());
            batch::gaussian_sq(sq.data(), ref_count, c, vals.data());
            real_t ordered = 0;
            for (index_t j = 0; j < ref_count; ++j) ordered += vals[j];
            // Bitwise, NaN rows included: gaussian_sq multiplies by the
            // hoisted -c in every lane loop, so a NaN's sign bit does not
            // depend on the lane.
            EXPECT_TRUE(same_bits(sums[k], ordered))
                << "row " << k << ": " << sums[k] << " vs " << ordered;
            EXPECT_EQ(std::isnan(sums[k]), nan_row && k == bad_row) << "row " << k;
          }
        }
      }
    }
  }
}

// batch::box_sq_bounds, the KDE row rule's bound pass: every lane's lower
// bound is bitwise BBox::min_sq_dist_point and its upper bound bitwise
// BBox::max_sq_dist_point, NaN and infinite coordinates included. The tiles
// cover a leaf widened to whole blocks inside its slice and leaves whose last
// block would leave the slice (they end at `stride` and run the exact
// count); a sentinel past whole_blocks(count) shows nothing is written there.
TEST(BoxSqBounds, LanesAreBitwisePointBounds) {
  constexpr index_t kStride = 40;
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t sentinel = -12345;
  Rng rng(2026);
  for (const index_t dim : {1, 2, 3, 5, 8, 17}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    std::vector<real_t> lanes(static_cast<std::size_t>(dim * kStride));
    for (real_t& v : lanes) v = rng.uniform(-3.0, 3.0);
    lanes[3] = nan;                                  // point 3, dimension 0
    lanes[(dim - 1) * kStride + 36] = nan;           // point 36, last dimension
    lanes[(dim - 1) * kStride + 20] = inf;           // point 20, last dimension
    lanes[17] = -inf;                                // point 17, dimension 0
    BBox box(dim);
    for (index_t j = 0; j < 4; ++j) {
      std::vector<real_t> p(dim);
      for (real_t& v : p) v = rng.uniform(-1.0, 1.5);
      box.include_point(p.data());
    }
    const index_t tiles[][2] = {{0, 37}, {5, 9}, {32, 8}, {33, 7}, {29, 11}};
    for (const auto& [begin, count] : tiles) {
      SCOPED_TRACE("tile [" + std::to_string(begin) + ", +" +
                   std::to_string(count) + ")");
      const batch::Tile tile{lanes.data(), kStride, begin, count, dim};
      const index_t padded = batch::whole_blocks(count);
      std::vector<real_t> lower(padded + 1, sentinel), upper(padded + 1, sentinel);
      batch::box_sq_bounds(tile, box.lo_data(), box.hi_data(), lower.data(),
                           upper.data());
      EXPECT_EQ(lower[padded], sentinel);
      EXPECT_EQ(upper[padded], sentinel);
      for (index_t j = 0; j < count; ++j) {
        const real_t* p = lanes.data() + begin + j;
        const real_t want_lo = box.min_sq_dist_point(p, kStride);
        const real_t want_hi = box.max_sq_dist_point(p, kStride);
        EXPECT_TRUE(same_bits(lower[j], want_lo))
            << "lane " << j << ": " << lower[j] << " vs " << want_lo;
        EXPECT_TRUE(same_bits(upper[j], want_hi))
            << "lane " << j << ": " << upper[j] << " vs " << want_hi;
      }
      // The NaN points give NaN upper bounds (a NaN gap is 0 below).
      if (begin <= 3 && 3 < begin + count) {
        EXPECT_TRUE(std::isnan(upper[3 - begin]));
      }
    }
  }
}

// batch::sq_dists_rows, the k-NN and EMST base cases' distance kernel: every
// real lane of every row is bitwise the sq_dists lane of that row, NaN and
// infinite coordinates included, for groups of 1..kDistRows rows read by
// index from a query tile that starts inside its slice. The reference tiles
// hold 1-40 points, either inside their slice (whole blocks, the lanes past
// the count read the next points) or ending at the slice's stride (whole
// blocks when the count is a multiple of kLaneBlock, else the exact count).
// A sentinel past the rows' whole blocks, and past the real count of an
// exact-count tile, shows nothing is written there.
TEST(SqDistsRows, LanesAreBitwiseSqDists) {
  constexpr index_t kRefStride = 48; // a multiple of kLaneBlock, as the mirror's
  constexpr index_t kQueryStride = 24;
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t sentinel = -12345;
  Rng rng(2029);
  for (const index_t dim : {1, 2, 3, 5, 8, 17, 32}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    std::vector<real_t> ref_lanes(static_cast<std::size_t>(dim * kRefStride));
    for (real_t& v : ref_lanes) v = rng.uniform(-3.0, 3.0);
    ref_lanes[5] = nan;                                  // point 5, dimension 0
    ref_lanes[(dim - 1) * kRefStride + 30] = inf;        // point 30, last dimension
    ref_lanes[(dim - 1) * kRefStride + 44] = -inf;       // point 44, last dimension
    ref_lanes[(dim / 2) * kRefStride + 12] = nan;        // point 12, middle dimension
    std::vector<real_t> query_lanes(static_cast<std::size_t>(dim * kQueryStride));
    for (real_t& v : query_lanes) v = rng.uniform(-3.0, 3.0);
    // The query tile is points 2..21 of its slice; its rows 4, 9 and 13 carry
    // a NaN, an infinity and a negative infinity.
    const batch::Tile queries{query_lanes.data(), kQueryStride, 2, 20, dim};
    query_lanes[(dim - 1) * kQueryStride + 2 + 4] = nan;
    query_lanes[2 + 9] = inf;
    query_lanes[(dim / 2) * kQueryStride + 2 + 13] = -inf;
    const index_t row_sets[][batch::kDistRows] = {
        {0, 4, 9, 13}, {19, 3, 13, 7}, {9, 4, 0, 11}, {17, 2, 19, 1}};

    for (index_t count = 1; count <= 40; ++count)
      for (const index_t begin : {index_t(3), kRefStride - count}) {
        const batch::Tile ref{ref_lanes.data(), kRefStride, begin, count, dim};
        const index_t run = batch::whole_blocks(count);
        const index_t written = batch::whole_block_count(ref);
        for (const auto& rows : row_sets)
          for (index_t nrows = 1; nrows <= batch::kDistRows; ++nrows) {
            SCOPED_TRACE("tile [" + std::to_string(begin) + ", +" +
                         std::to_string(count) + ") rows " +
                         std::to_string(nrows) + " from " +
                         std::to_string(rows[0]));
            std::vector<real_t> out(static_cast<std::size_t>(nrows * run + 1),
                                    sentinel);
            batch::sq_dists_rows(queries, rows, nrows, ref, out.data());
            EXPECT_EQ(out[nrows * run], sentinel);
            std::vector<real_t> qpt(dim), want(count);
            for (index_t k = 0; k < nrows; ++k) {
              for (index_t d = 0; d < dim; ++d) qpt[d] = queries.lane(d)[rows[k]];
              batch::sq_dists(ref, qpt.data(), want.data());
              for (index_t j = 0; j < count; ++j)
                EXPECT_TRUE(same_bits(out[k * run + j], want[j]))
                    << "row " << k << " lane " << j << ": " << out[k * run + j]
                    << " vs " << want[j];
              for (index_t j = written; j < run; ++j)
                EXPECT_EQ(out[k * run + j], sentinel) << "row " << k << " lane " << j;
            }
          }
      }
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
