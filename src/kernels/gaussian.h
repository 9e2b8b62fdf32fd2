// Portal -- Gaussian kernels for KDE, EM, and the naive Bayes classifier.
#pragma once

#include <cmath>

#include "kernels/fastmath.h"
#include "kernels/metrics.h"
#include "util/common.h"

namespace portal {

inline constexpr real_t kTwoPi = real_t(6.283185307179586476925286766559);

/// Isotropic Gaussian KDE kernel evaluated on a *squared* distance:
/// K_sigma(d^2) = exp(-d^2 / (2 sigma^2)). Monotone decreasing in distance,
/// which is the property the approximation generator relies on (Sec. II).
class GaussianKernel {
 public:
  explicit GaussianKernel(real_t sigma) : inv_two_sigma_sq_(1 / (2 * sigma * sigma)), sigma_(sigma) {}

  real_t sigma() const { return sigma_; }

  /// Precomputed 1 / (2 sigma^2) for the batched lane kernels
  /// (kernels/batch.h evaluates exp(-sq * inv_two_sigma_sq) per lane).
  real_t inv_two_sigma_sq() const { return inv_two_sigma_sq_; }

  /// det_exp, the exp every engine evaluates (kernels/fastmath.h), so the
  /// expert's leaves, bounds and centre values match generated code.
  real_t eval_sq(real_t sq_dist) const {
    return det_exp(-sq_dist * inv_two_sigma_sq_);
  }

  /// Normalization constant for a d-dimensional density estimate:
  /// (2 pi sigma^2)^{-d/2} / N, applied once after accumulation.
  real_t normalization(index_t dim, index_t n) const {
    return std::pow(kTwoPi * sigma_ * sigma_, -real_t(dim) / 2) /
           static_cast<real_t>(n);
  }

 private:
  real_t inv_two_sigma_sq_;
  real_t sigma_;
};

/// Multivariate normal log-density log N(x | mu, Sigma) using the
/// Cholesky-optimized Mahalanobis path. `scratch` needs 2*dim reals.
inline real_t log_gaussian_pdf(const real_t* x, const real_t* mu,
                               const MahalanobisContext& ctx, real_t* scratch) {
  const real_t maha = mahalanobis_sq_cholesky(x, mu, ctx.chol(), ctx.dim(), scratch);
  return real_t(-0.5) *
         (static_cast<real_t>(ctx.dim()) * std::log(kTwoPi) + ctx.log_det() + maha);
}

/// Same density through the explicit-inverse path (ablation / oracle).
inline real_t log_gaussian_pdf_naive(const real_t* x, const real_t* mu,
                                     const MahalanobisContext& ctx) {
  const real_t maha = mahalanobis_sq_naive(x, mu, ctx.inverse(), ctx.dim());
  return real_t(-0.5) *
         (static_cast<real_t>(ctx.dim()) * std::log(kTwoPi) + ctx.log_det() + maha);
}

} // namespace portal
