// Portal -- kernel density estimation (paper Table III row 4, Fig. 3).
//
//   forall_q  sum_r  K_sigma(||x_q - x_r||)
//
// KDE is the paper's flagship *approximation* problem: the contribution of a
// reference node whose kernel value varies less than tau across the node pair
// is replaced by its center contribution times the node's density
// (ComputeApprox, Sec. II-C). tau is the user-facing accuracy/performance
// knob.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "tree/kdtree.h"
#include "traversal/rules.h"
#include "util/common.h"

namespace portal {

struct KdeOptions {
  real_t sigma = 1;       // Gaussian bandwidth
  real_t tau = 1e-3;      // approximation threshold on the unnormalized kernel (0 = exact)
  index_t leaf_size = kDefaultLeafSize;
  bool normalize = true;  // apply (2 pi sigma^2)^{-d/2} / N at the end
  bool parallel = true;
  int task_depth = -1;
  bool batch = true;     // SIMD tile base cases over the tree's SoA mirror
};

struct KdeResult {
  /// densities[i]: estimated density at query point i (original order).
  std::vector<real_t> densities;
  TraversalStats stats;
};

/// Exact KDE by brute force (the tau -> 0 oracle). Parallel over queries.
KdeResult kde_bruteforce(const Dataset& query, const Dataset& reference,
                         real_t sigma, bool normalize = true);

/// Dual-tree approximate KDE. Node pairs and, inside base cases, single
/// query rows whose kernel spread is at most tau take the centre value, so
/// the per-query absolute error on the unnormalized kernel sum is bounded by
/// tau * reference.size().
KdeResult kde_expert(const Dataset& query, const Dataset& reference,
                     const KdeOptions& options);

/// Tree-order variant for the Portal executor (densities in permuted order).
KdeResult kde_dualtree_permuted(const KdTree& qtree, const KdTree& rtree,
                                const KdeOptions& options);

} // namespace portal
