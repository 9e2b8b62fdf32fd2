// Portal -- axis-aligned bounding boxes (hyper-rectangles).
//
// Sec. II-A of the paper: bounding-box metadata lets the traversal compute
// node-to-node and node-to-point distance bounds *without touching points*,
// which is what makes Prune/Approximate cheap. All L2 bounds are returned
// squared; Mahalanobis bounds are derived from the L2 ones via extreme
// eigenvalues of Sigma^{-1} (conservative, hence prune-safe).
#pragma once

#include <limits>
#include <vector>

#include "kernels/metrics.h"
#include "util/common.h"

namespace portal {

class BBox {
 public:
  BBox() = default;
  explicit BBox(index_t dim)
      : lo_(dim, std::numeric_limits<real_t>::max()),
        hi_(dim, std::numeric_limits<real_t>::lowest()) {}

  index_t dim() const { return static_cast<index_t>(lo_.size()); }

  real_t lo(index_t d) const { return lo_[d]; }
  real_t hi(index_t d) const { return hi_[d]; }
  real_t center(index_t d) const { return (lo_[d] + hi_[d]) / 2; }
  real_t extent(index_t d) const { return hi_[d] - lo_[d]; }

  /// Contiguous corner arrays [0, dim), for the batched bound pass
  /// (batch::box_sq_lower).
  const real_t* lo_data() const { return lo_.data(); }
  const real_t* hi_data() const { return hi_.data(); }

  /// Grow to include a point given by a coordinate accessor.
  template <typename CoordFn>
  void include(CoordFn&& coord) {
    for (index_t d = 0; d < dim(); ++d) {
      const real_t x = coord(d);
      if (x < lo_[d]) lo_[d] = x;
      if (x > hi_[d]) hi_[d] = x;
    }
  }

  void include_point(const real_t* p) {
    include([p](index_t d) { return p[d]; });
  }

  /// Index of the widest dimension (ties -> lowest index).
  index_t widest_dim() const;

  /// Span of the widest dimension (the paper's N^diameter).
  real_t widest_extent() const;

  /// Squared L2 diagonal length (max distance between two points inside).
  real_t sq_diagonal() const;

  /// Copy the center point into out[0..dim).
  void center_point(real_t* out) const;

  bool contains(const real_t* p) const;

  // -- L2 bounds (squared) ---------------------------------------------------
  real_t min_sq_dist(const BBox& other) const;
  real_t max_sq_dist(const BBox& other) const;
  real_t min_sq_dist_point(const real_t* p, index_t stride = 1) const;
  real_t max_sq_dist_point(const real_t* p, index_t stride = 1) const;

  // -- L1 / Linf bounds ------------------------------------------------------
  real_t min_dist_l1(const BBox& other) const;
  real_t max_dist_l1(const BBox& other) const;
  real_t min_dist_linf(const BBox& other) const;
  real_t max_dist_linf(const BBox& other) const;

  /// Metric-generic node-to-node bounds in the metric's natural space
  /// (squared for SqEuclidean/Mahalanobis, plain distance otherwise).
  real_t min_dist(MetricKind kind, const BBox& other,
                  const MahalanobisContext* ctx = nullptr) const;
  real_t max_dist(MetricKind kind, const BBox& other,
                  const MahalanobisContext* ctx = nullptr) const;

 private:
  std::vector<real_t> lo_;
  std::vector<real_t> hi_;
};

} // namespace portal
