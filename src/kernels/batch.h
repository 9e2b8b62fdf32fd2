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
// row_sq_dists is the one kernel over scattered point-contiguous rows (the
// k-NN graph's candidates): one row at a time, dimensions in the same
// ascending order.
//
// sq_dists_rows, the k-NN and EMST base cases' distance tile, is the
// register-blocked form of sq_dists (Elsen et al.'s N-body tile): up to
// kDistRows query rows, read by index from the query tree's mirror, share
// each loaded 8-lane reference block, and their accumulators stay in
// registers while the dimensions ascend. Each lane is bitwise the sq_dists
// lane of the same pair.
//
// box_sq_lower and box_sq_bounds run the other way round: a tile of *query*
// points (a query leaf of the tree's mirror) against one reference box,
// giving every row's point-to-box lower bound (and, for box_sq_bounds, upper
// bound) in one pass. The expert k-NN, the executor's point-prunable
// reduction base case and EMST's base case read the lower bound before
// deciding which rows run a distance tile; the expert KDE reads both to
// decide which rows take the centre value instead of a tile.
//
// gaussian_row_sums, the expert KDE's pair tile, is turned round too: its
// lanes are a block of query rows and the reference points stream through
// in ascending order (the N-body inner loop: one lane per target), through
// a transposed pair run that costs one det_exp per real pair while each
// row's sum stays bitwise its ordered ascending-j sum.
//
// Whole-block kernels (box_sq_lower, box_sq_bounds, sq_dists_rows,
// gaussian_sq_sum, gaussian_row_sums) run their lane loops over whole
// kLaneBlock blocks, so no lane falls to a scalar remainder. Lanes past the
// real count are computed and ignored: their buffers must be readable (and,
// for outputs, writable) up to whole_blocks(count). whole_block_count gives
// the lanes to run for a mirror tile: whole blocks, or the exact count when
// the last block would leave its slice.
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

/// Lanes per block of the whole-block kernels (box_sq_lower, box_sq_bounds,
/// sq_dists_rows, gaussian_sq_sum, gaussian_row_sums): one 64-byte vector of
/// reals.
inline constexpr index_t kLaneBlock = 8;

/// `count` rounded up to whole kLaneBlock blocks: how many outputs a
/// whole-block kernel writes for a tile of `count` lanes.
inline constexpr index_t whole_blocks(index_t count) {
  return (count + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
}

/// Lanes a whole-block kernel runs for tile `t`: whole_blocks(t.count) when
/// those stay inside its slice (the extra lanes read the points after the
/// tile, or the slice's zero padding, and are to be ignored), otherwise the
/// exact count.
inline index_t whole_block_count(const Tile& t) {
  const index_t blocks = whole_blocks(t.count);
  return t.begin + blocks <= t.stride ? blocks : t.count;
}

/// Mahalanobis tiles are solved in lane blocks of this width; the forward
/// substitution needs caller scratch of 2 * dim * kMahaBlock reals.
inline constexpr index_t kMahaBlock = 8;

/// out[j] = ||q - rows[ids[j]]||^2 over scattered point-contiguous rows
/// (`rows[i * dim + d]` is point i's d-th coordinate): the graph index's
/// candidate distances, whose ids are not contiguous. Each candidate is read
/// as one row and summed scalar in ascending dimension order, bitwise the
/// accumulation of problems/common.h. Scalar on purpose: lanes across eight
/// candidates (gathered loads) made serve-ann slower (EXPERIMENTS.md).
inline void row_sq_dists(const real_t* rows, index_t dim, const index_t* ids,
                         index_t count, const real_t* qpt, real_t* out) {
  for (index_t j = 0; j < count; ++j) {
    const real_t* r = rows + ids[j] * dim;
    real_t acc = 0;
    for (index_t d = 0; d < dim; ++d) {
      const real_t diff = r[d] - qpt[d];
      acc += diff * diff;
    }
    out[j] = acc;
  }
}

/// Query rows per call of sq_dists_rows: the row block whose accumulators
/// share each loaded reference block (Elsen et al.'s register tile).
inline constexpr index_t kDistRows = 4;

namespace detail {

/// Rows rows[0..N) of `queries` against the W reference lanes of `ref`
/// starting at lane j0, written to out[k * ostride + j0 + l]. The N x W
/// accumulators stay in registers while the dimensions ascend; the first
/// dimension stores its square (bitwise 0 + diff * diff: a square is never
/// -0, and a NaN passes through the add unchanged).
template <index_t N, index_t W>
inline void sq_dists_block(const Tile& queries, const index_t* rows,
                           const Tile& ref, index_t j0, real_t* out,
                           index_t ostride) {
  real_t acc[N][W];
  {
    const real_t* r = ref.lane(0) + j0;
    const real_t* q = queries.lane(0);
    for (index_t k = 0; k < N; ++k) {
      const real_t qk = q[rows[k]];
#pragma omp simd
      for (index_t l = 0; l < W; ++l) {
        const real_t diff = r[l] - qk;
        acc[k][l] = diff * diff;
      }
    }
  }
  for (index_t d = 1; d < ref.dim; ++d) {
    const real_t* r = ref.lane(d) + j0;
    const real_t* q = queries.lane(d);
    for (index_t k = 0; k < N; ++k) {
      const real_t qk = q[rows[k]];
#pragma omp simd
      for (index_t l = 0; l < W; ++l) {
        const real_t diff = r[l] - qk;
        acc[k][l] += diff * diff;
      }
    }
  }
  for (index_t k = 0; k < N; ++k)
    for (index_t l = 0; l < W; ++l) out[k * ostride + j0 + l] = acc[k][l];
}

template <index_t N>
inline void sq_dists_rows(const Tile& queries, const index_t* rows,
                          const Tile& ref, real_t* out) {
  const index_t ostride = whole_blocks(ref.count);
  const index_t lanes = whole_block_count(ref);
  const index_t full = lanes / kLaneBlock * kLaneBlock;
  for (index_t j0 = 0; j0 < full; j0 += kLaneBlock)
    sq_dists_block<N, kLaneBlock>(queries, rows, ref, j0, out, ostride);
  // The exact-count fallback of a slice's last leaf: its last block would
  // leave the slice, so its lanes run one at a time.
  for (index_t j0 = full; j0 < lanes; ++j0)
    sq_dists_block<N, 1>(queries, rows, ref, j0, out, ostride);
}

} // namespace detail

/// Squared distances from nrows query rows (1..kDistRows) to every point of
/// the reference tile `ref`: out[k * whole_blocks(ref.count) + j] =
/// ||r_j - q_k||^2, where q_k is lane rows[k] of `queries` (a tile of the
/// query tree's mirror, read in place: no copy of the row). `out` holds
/// nrows * whole_blocks(ref.count) reals.
///
/// The reference lanes run whole_block_count(ref): whole kLaneBlock blocks,
/// whose lanes past ref.count are computed and to be ignored, or the exact
/// count for a slice's last leaf. Per block the rows' accumulators stay in
/// registers while the dimensions ascend, so each reference block is loaded
/// once per dimension for all rows and `out` is written once. Every lane is
/// bitwise the sq_dists lane of the same pair: diff = r - q, 0 + diff^2,
/// then += diff^2 over ascending dimensions.
inline void sq_dists_rows(const Tile& queries, const index_t* rows,
                          index_t nrows, const Tile& ref, real_t* out) {
  static_assert(kDistRows == 4);
  switch (nrows) {
    case 1: detail::sq_dists_rows<1>(queries, rows, ref, out); return;
    case 2: detail::sq_dists_rows<2>(queries, rows, ref, out); return;
    case 3: detail::sq_dists_rows<3>(queries, rows, ref, out); return;
    case 4: detail::sq_dists_rows<4>(queries, rows, ref, out); return;
  }
  throw std::invalid_argument("batch::sq_dists_rows: 1..kDistRows rows");
}

inline void count_batch_tile(index_t pairs) {
  PORTAL_OBS_COUNT("base/batch_tiles", 1);
  PORTAL_OBS_COUNT("base/batch_pairs", static_cast<std::uint64_t>(pairs));
}

inline void count_scalar_tail(index_t pairs) {
  PORTAL_OBS_COUNT("base/scalar_pairs", static_cast<std::uint64_t>(pairs));
}

/// out[j] = ||q - r_j||^2. The KDE pair tiles no longer call it (they run
/// gaussian_row_sums), nor do the L2 k-NN and EMST tiles (sq_dists_rows);
/// kept unchanged for the other base cases, the KDE row rule's centre
/// distances, perfbench's tile timing and the tests.
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

/// out[j] = squared L2 distance from lane j's point to the box [lo, hi]: the
/// point-to-box lower bound of every query row of a leaf in one pass. The
/// per-dimension gap is written as selects so the lane loop vectorizes; each
/// lane is bitwise BBox::min_sq_dist_point (same gap, same ascending
/// dimension order), NaN coordinates included (both compares fail, so the
/// gap is 0). The loop runs whole_block_count(t) lanes, so `out` must hold
/// whole_blocks(t.count) reals and lanes past t.count are to be ignored.
/// Whole blocks measured ~6% lower batch-knn solve time than an exact-count
/// loop (EXPERIMENTS.md).
inline void box_sq_lower(const Tile& t, const real_t* lo, const real_t* hi,
                         real_t* out) {
  const index_t count = whole_block_count(t);
#pragma omp simd
  for (index_t j = 0; j < count; ++j) out[j] = 0;
  for (index_t d = 0; d < t.dim; ++d) {
    const real_t* slice = t.lane(d);
    const real_t l = lo[d];
    const real_t h = hi[d];
#pragma omp simd
    for (index_t j = 0; j < count; ++j) {
      const real_t x = slice[j];
      const real_t gap = x < l ? l - x : (x > h ? x - h : real_t{0});
      out[j] += gap * gap;
    }
  }
}

/// lower[j] and upper[j] = the squared L2 distances from lane j's point to
/// the nearest and farthest points of the box [lo, hi], in one pass. Each
/// lower lane is bitwise box_sq_lower's (BBox::min_sq_dist_point); each
/// upper lane is bitwise BBox::max_sq_dist_point: the farther corner
/// distance picked as std::max picks it, so a NaN coordinate gives NaN in
/// both. Whole blocks as box_sq_lower: both outputs must hold
/// whole_blocks(t.count) reals.
inline void box_sq_bounds(const Tile& t, const real_t* lo, const real_t* hi,
                          real_t* lower, real_t* upper) {
  const index_t count = whole_block_count(t);
#pragma omp simd
  for (index_t j = 0; j < count; ++j) {
    lower[j] = 0;
    upper[j] = 0;
  }
  for (index_t d = 0; d < t.dim; ++d) {
    const real_t* slice = t.lane(d);
    const real_t l = lo[d];
    const real_t h = hi[d];
#pragma omp simd
    for (index_t j = 0; j < count; ++j) {
      const real_t x = slice[j];
      const real_t gap = x < l ? l - x : (x > h ? x - h : real_t{0});
      const real_t to_lo = std::abs(x - l);
      const real_t to_hi = std::abs(x - h);
      const real_t far = to_lo < to_hi ? to_hi : to_lo;
      lower[j] += gap * gap;
      upper[j] += far * far;
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
/// GaussianKernel::eval_sq. The negation is hoisted onto the constant:
/// sq * -c is bitwise -sq * c for every non-NaN input, and written this way
/// a NaN lane's sign bit no longer depends on whether the compiler folded
/// the negation in the vector body and the scalar remainder alike.
inline void gaussian_sq(const real_t* sq, index_t count, real_t inv_two_sigma_sq,
                        real_t* out) {
  const real_t neg = -inv_two_sigma_sq;
#pragma omp simd
  for (index_t j = 0; j < count; ++j) out[j] = det_exp(sq[j] * neg);
}

/// Gaussian values summed over a lane of squared distances. The exp runs
/// vectorized over chunks (gaussian_sq) in whole kLaneBlock blocks, so no
/// lane falls to a scalar det_exp: `sq` must be readable up to
/// whole_blocks(count), and the values of lanes count.. are computed and
/// dropped. The sum stays scalar over the real `count` only, in the same
/// ascending-j order as the scalar KDE base case, so the result is bitwise
/// gaussian_sq followed by an ordered sum at any vector width, whatever the
/// padding lanes hold. No base case calls it any more (the expert KDE runs
/// gaussian_row_sums, which gives every row this same sum); kept unchanged
/// because perfbench's tile timing and the tests call it.
inline real_t gaussian_sq_sum(const real_t* sq, index_t count,
                              real_t inv_two_sigma_sq) {
  constexpr index_t kChunk = 64;
  static_assert(kChunk % kLaneBlock == 0);
  alignas(64) real_t vals[kChunk];
  real_t total = 0;
  for (index_t b = 0; b < count; b += kChunk) {
    const index_t w = std::min(kChunk, count - b);
    gaussian_sq(sq + b, whole_blocks(w), inv_two_sigma_sq, vals);
    for (index_t j = 0; j < w; ++j) total += vals[j];
  }
  return total;
}

/// Reference points per chunk of gaussian_row_sums: a chunk's pair run holds
/// at most kRowSumChunk * whole_blocks(rows) reals, so the scratch stays
/// bounded by the query leaf whatever the reference leaf holds.
inline constexpr index_t kRowSumChunk = 64;

/// Reals of `run` scratch gaussian_row_sums needs for `rows` query rows.
inline constexpr index_t row_sums_scratch(index_t rows) {
  return kRowSumChunk * whole_blocks(rows);
}

/// sums[k] = the Gaussian values exp(-||r_j - q_k||^2 * inv_two_sigma_sq)
/// of query row k against every reference point of `ref`, added in
/// ascending j. `rows` is a dimension-major block of query rows with the
/// reference tile's dimension, at least 1 (as every tree's); rows.lane(d)
/// must be readable up to whole_blocks(rows.count), and the lanes past the
/// real count may hold anything: their sums are computed and to be ignored.
/// `run` holds row_sums_scratch(rows.count) reals of scratch and `sums`
/// whole_blocks(rows.count) outputs.
///
/// Per chunk of kRowSumChunk reference points, point j's distances to every
/// row go to run[j * rows.count + k], each bitwise the lane sq_dists sums
/// (diff = r_j - q_k, dimensions ascending); the whole-block lanes past the
/// last row spill into the next point's slots, which that point then
/// overwrites. One gaussian_sq over whole_blocks(chunk * rows.count) lanes
/// turns the run into kernel values, and sums[k] += run[j * rows.count + k]
/// over ascending j adds them, vectorized over k. Row k's sum is bitwise
/// gaussian_sq followed by an ordered ascending-j sum (gaussian_sq_sum):
/// the same distances, the same det_exp lanes, the same additions from 0 in
/// the same order, carried across chunks.
inline void gaussian_row_sums(const Tile& rows, const Tile& ref,
                              real_t inv_two_sigma_sq, real_t* run,
                              real_t* sums) {
  const index_t count = rows.count;
  const index_t lanes = whole_blocks(count);
#pragma omp simd
  for (index_t k = 0; k < lanes; ++k) sums[k] = 0;
  if (count == 0) return;
  for (index_t b = 0; b < ref.count; b += kRowSumChunk) {
    const index_t w = std::min(kRowSumChunk, ref.count - b);
    for (index_t j = 0; j < w; ++j) {
      real_t* out = run + j * count;
      // The first dimension stores its square: bitwise 0 + diff * diff, as
      // a square is never -0, and no zeroing pass (gcc turns one into a
      // memset call per point).
      const real_t r0 = ref.lane(0)[b + j];
      const real_t* q0 = rows.lane(0);
#pragma omp simd
      for (index_t k = 0; k < lanes; ++k) {
        const real_t diff = r0 - q0[k];
        out[k] = diff * diff;
      }
      for (index_t d = 1; d < ref.dim; ++d) {
        const real_t r = ref.lane(d)[b + j];
        const real_t* q = rows.lane(d);
#pragma omp simd
        for (index_t k = 0; k < lanes; ++k) {
          const real_t diff = r - q[k];
          out[k] += diff * diff;
        }
      }
    }
    gaussian_sq(run, whole_blocks(w * count), inv_two_sigma_sq, run);
    for (index_t j = 0; j < w; ++j) {
      const real_t* vals = run + j * count;
#pragma omp simd
      for (index_t k = 0; k < lanes; ++k) sums[k] += vals[k];
    }
  }
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
