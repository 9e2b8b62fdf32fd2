// Portal -- BatchEval: SIMD-batched base-case kernels over SoA leaf tiles
// (paper Sec. IV-F: the traversal switches from task parallelism in the
// upper tree to data parallelism inside the base cases).
//
// A Tile is one query point against a contiguous run of reference points
// taken from a tree's SoA mirror (tree/soa_mirror.h): dimension-major lanes,
// 64-byte aligned, unit stride across points. Every routine here is written
// dimension-outer / lane-inner with `#pragma omp simd` on the lane loop so
// the host compiler vectorizes across points for any dimensionality -- the
// same loop ordering as the scalar helpers in problems/common.h, which makes
// the batched results bitwise-identical to the scalar path (the per-lane
// accumulation visits dimensions in the same ascending order).
//
// Lane utilization is observable through the obs counters emitted by
// count_batch_tile / count_scalar_tail ("base/..."; see OBSERVABILITY.md).
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "kernels/fastmath.h"
#include "kernels/metrics.h"
#include "obs/trace.h"
#include "util/common.h"

namespace portal::batch {

/// One leaf tile: `count` reference points starting at lane offset `begin`
/// inside a dimension-major mirror (`lanes[d * stride + j]` is point j's
/// d-th coordinate).
struct Tile {
  const real_t* lanes = nullptr;
  index_t stride = 0;
  index_t begin = 0;
  index_t count = 0;
  index_t dim = 0;

  const real_t* lane(index_t d) const { return lanes + d * stride + begin; }
};

/// Mahalanobis tiles are solved in lane blocks of this width; the forward
/// substitution needs caller scratch of 2 * dim * kMahaBlock reals.
inline constexpr index_t kMahaBlock = 8;

/// Gather `count` scattered mirror points (ids[j] indexes into the
/// dimension-major `lanes`/`stride` storage of a SoaMirror) into a
/// caller-owned dimension-major scratch tile of lane width `scratch_stride`
/// (>= count), and return a Tile viewing it. The graph index uses this to
/// run the SIMD distance kernels above over beam-search candidate sets whose
/// ids are not contiguous: the per-pair accumulation still visits dimensions
/// in ascending order, so gathered results stay bitwise-identical to the
/// scalar helpers in problems/common.h for every pair.
inline Tile gather(const real_t* lanes, index_t stride, index_t dim,
                   const index_t* ids, index_t count, real_t* scratch,
                   index_t scratch_stride) {
  for (index_t d = 0; d < dim; ++d) {
    const real_t* src = lanes + d * stride;
    real_t* dst = scratch + d * scratch_stride;
    for (index_t j = 0; j < count; ++j) dst[j] = src[ids[j]];
  }
  return Tile{scratch, scratch_stride, 0, count, dim};
}

inline void count_batch_tile(index_t pairs) {
  PORTAL_OBS_COUNT("base/batch_tiles", 1);
  PORTAL_OBS_COUNT("base/batch_pairs", static_cast<std::uint64_t>(pairs));
}

inline void count_scalar_tail(index_t pairs) {
  PORTAL_OBS_COUNT("base/scalar_pairs", static_cast<std::uint64_t>(pairs));
}

/// out[j] = ||q - r_j||^2.
inline void sq_dists(const Tile& t, const real_t* qpt, real_t* out) {
  const index_t count = t.count;
#pragma omp simd
  for (index_t j = 0; j < count; ++j) out[j] = 0;
  for (index_t d = 0; d < t.dim; ++d) {
    const real_t* slice = t.lane(d);
    const real_t q = qpt[d];
#pragma omp simd
    for (index_t j = 0; j < count; ++j) {
      const real_t diff = slice[j] - q;
      out[j] += diff * diff;
    }
  }
}

/// out[j] = ||q - r_j||_1.
inline void l1_dists(const Tile& t, const real_t* qpt, real_t* out) {
  const index_t count = t.count;
#pragma omp simd
  for (index_t j = 0; j < count; ++j) out[j] = 0;
  for (index_t d = 0; d < t.dim; ++d) {
    const real_t* slice = t.lane(d);
    const real_t q = qpt[d];
#pragma omp simd
    for (index_t j = 0; j < count; ++j) out[j] += std::abs(slice[j] - q);
  }
}

/// out[j] = ||q - r_j||_inf.
inline void linf_dists(const Tile& t, const real_t* qpt, real_t* out) {
  const index_t count = t.count;
#pragma omp simd
  for (index_t j = 0; j < count; ++j) out[j] = 0;
  for (index_t d = 0; d < t.dim; ++d) {
    const real_t* slice = t.lane(d);
    const real_t q = qpt[d];
#pragma omp simd
    for (index_t j = 0; j < count; ++j)
      out[j] = std::max(out[j], std::abs(slice[j] - q));
  }
}

/// out[j] = exp(-sq[j] * inv_two_sigma_sq) -- the Gaussian KDE kernel on a
/// lane of squared distances (kernels/gaussian.h, batched). det_exp is
/// branch-free, so the lane loop vectorizes; each lane is bitwise the scalar
/// GaussianKernel::eval_sq.
inline void gaussian_sq(const real_t* sq, index_t count, real_t inv_two_sigma_sq,
                        real_t* out) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j) out[j] = det_exp(-sq[j] * inv_two_sigma_sq);
}

/// Gaussian values summed over a lane of squared distances. The exp runs
/// vectorized over chunks (gaussian_sq); the sum stays scalar in the same
/// ascending-j order as the scalar KDE base case, so the result is bitwise
/// gaussian_sq followed by an ordered sum at any vector width.
inline real_t gaussian_sq_sum(const real_t* sq, index_t count,
                              real_t inv_two_sigma_sq) {
  constexpr index_t kChunk = 64;
  alignas(64) real_t vals[kChunk];
  real_t total = 0;
  for (index_t b = 0; b < count; b += kChunk) {
    const index_t w = std::min(kChunk, count - b);
    gaussian_sq(sq + b, w, inv_two_sigma_sq, vals);
    for (index_t j = 0; j < w; ++j) total += vals[j];
  }
  return total;
}

/// Squared Mahalanobis distances via Cholesky forward substitution, solved
/// kMahaBlock lanes at a time (the substitution recurrence runs across the
/// block, vectorizing over lanes instead of the serial per-point solve).
/// `scratch` must hold 2 * dim * kMahaBlock reals. The per-lane operation
/// order matches mahalanobis_sq_cholesky exactly.
inline void maha_sq_dists(const Tile& t, const real_t* qpt,
                          const std::vector<real_t>& chol, real_t* scratch,
                          real_t* out) {
  const index_t m = t.dim;
  real_t* diff = scratch;                  // m x kMahaBlock
  real_t* solved = scratch + m * kMahaBlock; // m x kMahaBlock
  for (index_t b = 0; b < t.count; b += kMahaBlock) {
    const index_t w = std::min(kMahaBlock, t.count - b);
    for (index_t d = 0; d < m; ++d) {
      const real_t* slice = t.lane(d) + b;
      const real_t q = qpt[d];
#pragma omp simd
      for (index_t l = 0; l < w; ++l) diff[d * kMahaBlock + l] = q - slice[l];
    }
    for (index_t i = 0; i < m; ++i) {
      real_t* row = solved + i * kMahaBlock;
#pragma omp simd
      for (index_t l = 0; l < w; ++l) row[l] = diff[i * kMahaBlock + l];
      for (index_t k = 0; k < i; ++k) {
        const real_t lik = chol[i * m + k];
        const real_t* prev = solved + k * kMahaBlock;
#pragma omp simd
        for (index_t l = 0; l < w; ++l) row[l] -= lik * prev[l];
      }
      // Divide (not multiply by a reciprocal): matches the scalar solve
      // bit-for-bit.
      const real_t lii = chol[i * m + i];
#pragma omp simd
      for (index_t l = 0; l < w; ++l) row[l] /= lii;
    }
    real_t* tile_out = out + b;
#pragma omp simd
    for (index_t l = 0; l < w; ++l) tile_out[l] = 0;
    for (index_t i = 0; i < m; ++i) {
      const real_t* row = solved + i * kMahaBlock;
#pragma omp simd
      for (index_t l = 0; l < w; ++l) tile_out[l] += row[l] * row[l];
    }
  }
}

/// Metric-generic tile distances in the same space as dists_to_range
/// (problems/common.h): squared for the L2 family (callers square-compare;
/// sqrt at the edge), plain distance otherwise. Mahalanobis needs the
/// context's Cholesky factor plus 2 * dim * kMahaBlock scratch.
inline void dists(MetricKind kind, const Tile& t, const real_t* qpt,
                  const MahalanobisContext* maha, real_t* scratch, real_t* out) {
  switch (kind) {
    case MetricKind::SqEuclidean:
    case MetricKind::Euclidean:
      sq_dists(t, qpt, out);
      return;
    case MetricKind::Manhattan:
      l1_dists(t, qpt, out);
      return;
    case MetricKind::Chebyshev:
      linf_dists(t, qpt, out);
      return;
    case MetricKind::Mahalanobis:
      maha_sq_dists(t, qpt, maha->chol(), scratch, out);
      return;
  }
  throw std::invalid_argument("batch::dists: unsupported metric");
}

/// Tile distances in the metric's *natural* space (true distance for
/// Euclidean) -- the executor's envelope input space.
inline void natural_dists(MetricKind kind, const Tile& t, const real_t* qpt,
                          const MahalanobisContext* maha, real_t* scratch,
                          real_t* out) {
  dists(kind, t, qpt, maha, scratch, out);
  if (kind == MetricKind::Euclidean) {
    const index_t count = t.count;
#pragma omp simd
    for (index_t j = 0; j < count; ++j) out[j] = std::sqrt(out[j]);
  }
}

/// BatchEval: the metric-bound facade problems and the executor hold on to.
/// `natural` selects natural_dists semantics (executor) over the
/// square-compare semantics of dists_to_range (pattern kernels).
struct BatchEval {
  MetricKind metric = MetricKind::SqEuclidean;
  const MahalanobisContext* maha = nullptr;
  bool natural = false;

  void operator()(const Tile& t, const real_t* qpt, real_t* scratch,
                  real_t* out) const {
    if (natural)
      natural_dists(metric, t, qpt, maha, scratch, out);
    else
      dists(metric, t, qpt, maha, scratch, out);
  }
};

} // namespace portal::batch
