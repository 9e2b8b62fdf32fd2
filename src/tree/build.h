// Portal -- helpers shared by the space-partitioning tree builders.
//
// The kd-tree splits at the positional median, so the shape of the node
// array (preorder: node, left subtree, right subtree) is a pure function of
// (point count, leaf size). `median_subtree_nodes` exposes
// that function, which is what lets the task-parallel builds pre-size the
// node array and write every node into a slot whose index is known before
// any child is built -- the parallel build is bit-for-bit identical to the
// serial one. The permuted-dataset materialization and inverse-permutation
// fill are the other two O(n) passes every tree constructor runs; they are
// embarrassingly parallel and shared here.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "util/common.h"

namespace portal::detail {

/// Node count of the median-split subtree over `count` points: the recursion
/// puts floor(count/2) points left and the rest right until a range fits in
/// a leaf. Cost is O(subtree nodes), trivial next to the partition work.
inline index_t median_subtree_nodes(index_t count, index_t leaf_size) {
  if (count <= leaf_size) return 1;
  const index_t left = count / 2;
  return 1 + median_subtree_nodes(left, leaf_size) +
         median_subtree_nodes(count - left, leaf_size);
}

/// out[i] <- input[perm[i]] for every coordinate; `out` must already have
/// input's shape. Parallel over points when `parallel` is set (each point is
/// written by exactly one iteration, so the loop is race-free).
inline void materialize_permuted(const Dataset& input,
                                 const std::vector<index_t>& perm, Dataset& out,
                                 bool parallel) {
  const index_t n = input.size();
  const index_t dim = input.dim();
#pragma omp parallel for schedule(static) if (parallel && n >= (1 << 15))
  for (index_t i = 0; i < n; ++i)
    for (index_t d = 0; d < dim; ++d) out.coord(i, d) = input.coord(perm[i], d);
}

/// inv[perm[i]] <- i. perm is a permutation, so the writes are disjoint and
/// the parallel loop is race-free.
inline void fill_inverse_perm(const std::vector<index_t>& perm,
                              std::vector<index_t>& inv, bool parallel) {
  const index_t n = static_cast<index_t>(perm.size());
  inv.resize(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static) if (parallel && n >= (1 << 15))
  for (index_t i = 0; i < n; ++i) inv[perm[i]] = i;
}

} // namespace portal::detail
