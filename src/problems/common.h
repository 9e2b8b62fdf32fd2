// Portal -- shared building blocks for the hand-optimized ("expert" / PASCAL)
// problem implementations and for the Portal-generated pattern kernels.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "data/dataset.h"
#include "kernels/metrics.h"
#include "util/common.h"

namespace portal {

/// Squared-L2 distances from one query point to a contiguous range of
/// reference points, written into out[0 .. rend-rbegin).
///
/// This is the kernel the paper's layout policy exists for (Sec. IV-F):
///   column-major (d <= 4): dimension-outer / point-inner loops; the compiler
///     vectorizes across *points* reading contiguous dimension slices;
///   row-major: point-outer / dimension-inner; the inner per-dimension loop
///     vectorizes for large d.
/// `qpt` must be a dim-contiguous copy of the query point (callers keep a
/// small per-thread buffer).
inline void sq_dists_to_range(const Dataset& rdata, index_t rbegin, index_t rend,
                              const real_t* qpt, real_t* out) {
  const index_t count = rend - rbegin;
  const index_t dim = rdata.dim();
  if (rdata.layout() == Layout::ColMajor) {
    for (index_t j = 0; j < count; ++j) out[j] = 0;
    for (index_t d = 0; d < dim; ++d) {
      const real_t* slice = rdata.col_ptr(d) + rbegin;
      const real_t q = qpt[d];
      for (index_t j = 0; j < count; ++j) {
        const real_t diff = slice[j] - q;
        out[j] += diff * diff;
      }
    }
  } else {
    for (index_t j = 0; j < count; ++j) {
      const real_t* r = rdata.row_ptr(rbegin + j);
      real_t total = 0;
      for (index_t d = 0; d < dim; ++d) {
        const real_t diff = r[d] - qpt[d];
        total += diff * diff;
      }
      out[j] = total;
    }
  }
}

/// Same shape for the L1 metric.
inline void l1_dists_to_range(const Dataset& rdata, index_t rbegin, index_t rend,
                              const real_t* qpt, real_t* out) {
  const index_t count = rend - rbegin;
  const index_t dim = rdata.dim();
  if (rdata.layout() == Layout::ColMajor) {
    for (index_t j = 0; j < count; ++j) out[j] = 0;
    for (index_t d = 0; d < dim; ++d) {
      const real_t* slice = rdata.col_ptr(d) + rbegin;
      const real_t q = qpt[d];
      for (index_t j = 0; j < count; ++j) out[j] += std::abs(slice[j] - q);
    }
  } else {
    for (index_t j = 0; j < count; ++j) {
      const real_t* r = rdata.row_ptr(rbegin + j);
      real_t total = 0;
      for (index_t d = 0; d < dim; ++d) total += std::abs(r[d] - qpt[d]);
      out[j] = total;
    }
  }
}

/// Same shape for the Linf metric.
inline void linf_dists_to_range(const Dataset& rdata, index_t rbegin, index_t rend,
                                const real_t* qpt, real_t* out) {
  const index_t count = rend - rbegin;
  const index_t dim = rdata.dim();
  if (rdata.layout() == Layout::ColMajor) {
    for (index_t j = 0; j < count; ++j) out[j] = 0;
    for (index_t d = 0; d < dim; ++d) {
      const real_t* slice = rdata.col_ptr(d) + rbegin;
      const real_t q = qpt[d];
      for (index_t j = 0; j < count; ++j)
        out[j] = std::max(out[j], std::abs(slice[j] - q));
    }
  } else {
    for (index_t j = 0; j < count; ++j) {
      const real_t* r = rdata.row_ptr(rbegin + j);
      real_t best = 0;
      for (index_t d = 0; d < dim; ++d)
        best = std::max(best, std::abs(r[d] - qpt[d]));
      out[j] = best;
    }
  }
}

/// Metric-generic dispatch of the range helpers; distances come back in the
/// metric's natural space (squared for SqEuclidean).
inline void dists_to_range(MetricKind kind, const Dataset& rdata, index_t rbegin,
                           index_t rend, const real_t* qpt, real_t* out) {
  switch (kind) {
    case MetricKind::SqEuclidean:
    case MetricKind::Euclidean: // callers square-compare; sqrt at the edge
      sq_dists_to_range(rdata, rbegin, rend, qpt, out);
      return;
    case MetricKind::Manhattan:
      l1_dists_to_range(rdata, rbegin, rend, qpt, out);
      return;
    case MetricKind::Chebyshev:
      linf_dists_to_range(rdata, rbegin, rend, qpt, out);
      return;
    case MetricKind::Mahalanobis:
      break; // needs a context; callers use MahalanobisContext directly
  }
  throw std::invalid_argument("dists_to_range: unsupported metric");
}

/// Monotonically-decreasing atomic bound used for per-node pruning state.
/// Relaxed ordering is sufficient: a stale (larger) bound only reduces
/// pruning, never correctness.
class AtomicBound {
 public:
  AtomicBound() : value_(std::numeric_limits<real_t>::max()) {}
  AtomicBound(const AtomicBound& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}

  real_t load() const { return value_.load(std::memory_order_relaxed); }

  /// Lower the bound to `candidate` if it is smaller (CAS loop).
  void store_min(real_t candidate) {
    real_t current = value_.load(std::memory_order_relaxed);
    while (candidate < current &&
           !value_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }

  /// Unconditional store (used when recomputing a leaf bound exactly, which
  /// only happens from the single task owning that leaf).
  void store(real_t value) { value_.store(value, std::memory_order_relaxed); }

 private:
  std::atomic<real_t> value_;
};

/// Fixed-capacity sorted candidate list for k-reductions (paper Sec. IV-F:
/// "an ordered array of size k" keeps the minimum distances sorted so each
/// update costs few comparisons). Ascending order; worst() is the pruning
/// threshold.
class KnnList {
 public:
  KnnList(real_t* dists, index_t* ids, index_t k) : dists_(dists), ids_(ids), k_(k) {}

  /// Initialize to +inf / -1 sentinels.
  void reset() {
    for (index_t i = 0; i < k_; ++i) {
      dists_[i] = std::numeric_limits<real_t>::max();
      ids_[i] = -1;
    }
  }

  real_t worst() const { return dists_[k_ - 1]; }

  /// Insert (dist, id) if it beats the current worst; keeps ascending order.
  void insert(real_t dist, index_t id) {
    if (dist >= dists_[k_ - 1]) return;
    index_t pos = k_ - 1;
    while (pos > 0 && dists_[pos - 1] > dist) {
      dists_[pos] = dists_[pos - 1];
      ids_[pos] = ids_[pos - 1];
      --pos;
    }
    dists_[pos] = dist;
    ids_[pos] = id;
  }

  /// insert(value(j), first_id + j) for every j in [0, count) with keep(j),
  /// in ascending j: bitwise that per-candidate loop, with insert's early
  /// return hoisted out of it. Each candidate is compared once against the
  /// worst at entry with insert's own predicate, !(v >= worst), into a
  /// 64-lane bitmask, and only set bits reach insert. Exact because inserts
  /// only lower the worst, so a candidate the entry worst rejects, the
  /// current worst rejects too. The one exception is a NaN candidate, which
  /// insert parks in the worst slot: the worst then no longer compares below
  /// the entry value, and the remaining candidates go through insert
  /// unfiltered, as in the plain loop.
  template <typename Value, typename Keep>
  void insert_bulk(index_t count, index_t first_id, Value&& value, Keep&& keep) {
    const real_t entry = worst();
    for (index_t b = 0; b < count; b += 64) {
      const index_t w = std::min<index_t>(64, count - b);
      std::uint64_t mask = 0;
      for (index_t j = 0; j < w; ++j)
        mask |= static_cast<std::uint64_t>(keep(b + j) &
                                           !(value(b + j) >= entry))
                << j;
      while (mask != 0) {
        const index_t j = b + __builtin_ctzll(mask);
        mask &= mask - 1;
        insert(value(j), first_id + j);
        if (!(worst() <= entry)) {
          for (index_t rest = j + 1; rest < count; ++rest)
            if (keep(rest)) insert(value(rest), first_id + rest);
          return;
        }
      }
    }
  }

  /// insert(dists[j], first_id + j) for j in [0, count), filtered as above.
  void insert_bulk(const real_t* dists, index_t count, index_t first_id) {
    insert_bulk(
        count, first_id, [dists](index_t j) { return dists[j]; },
        [](index_t) { return true; });
  }

 private:
  real_t* dists_;
  index_t* ids_;
  index_t k_;
};

/// Scratch buffer sized for the largest leaf; one per thread.
inline constexpr index_t kMaxLeafScratch = 4096;

} // namespace portal
