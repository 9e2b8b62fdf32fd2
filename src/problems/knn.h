// Portal -- k-nearest neighbors (paper Table III row 1).
//
//   forall_q  argmin^k_r  ||x_q - x_r||
//
// `knn_expert` is the hand-optimized PASCAL-style dual-tree implementation
// used as the Table IV baseline; `knn_bruteforce` is the O(N^2) oracle the
// compiler also emits for correctness checks (Sec. IV).
#pragma once

#include "data/dataset.h"
#include "kernels/metrics.h"
#include "tree/kdtree.h"
#include "traversal/rules.h"
#include "util/common.h"

#include <vector>

namespace portal {

struct KnnOptions {
  index_t k = 1;
  index_t leaf_size = kDefaultLeafSize;
  MetricKind metric = MetricKind::Euclidean;
  bool parallel = true;
  int task_depth = -1; // -1: derive from thread count
  bool batch = true;   // SIMD tile base cases over the tree's SoA mirror
};

struct KnnResult {
  index_t k = 0;
  /// Row-major n x k: indices[i*k + j] is query i's j-th nearest reference
  /// point (original reference indexing), distances ascending per row.
  std::vector<index_t> indices;
  std::vector<real_t> distances; // metric distances (L2 un-squared)
  TraversalStats stats;
};

/// Exact k-NN by brute force; oracle for tests and the Table V-style
/// asymptotic comparisons. Parallel over queries.
KnnResult knn_bruteforce(const Dataset& query, const Dataset& reference,
                         index_t k, MetricKind metric = MetricKind::Euclidean);

/// Exact k-NN by dual-tree traversal with per-node descending bounds.
KnnResult knn_expert(const Dataset& query, const Dataset& reference,
                     const KnnOptions& options);

/// Dual-tree k-NN over pre-built trees (shared by the Portal executor, which
/// owns tree construction). Results are in *permuted* (tree) order;
/// `knn_expert` wraps this and un-permutes.
KnnResult knn_dualtree_permuted(const KdTree& qtree, const KdTree& rtree,
                                const KnnOptions& options);

} // namespace portal
