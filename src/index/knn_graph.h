// Portal -- exact k-NN graph index for approximate high-dimensional
// serving (DESIGN.md Sec. 18).
//
// kd-trees collapse toward brute force above d ~ 20, but the serving
// workloads the paper targets reach d = 68. This module adds a third
// spatial structure that trades a bounded, tunable amount of recall for
// latency that stays flat in dimension: the exact k-nearest-neighbor graph,
// queried with best-first beam search. Answers are exact in distance and
// approximate only in completeness.
//
// The graph honors the same contracts the trees already do:
//   * Built by Portal itself: the rows are the answer to the paper's
//     all-kNN program (forall_q argmin^k_r ||x_q - x_r||, a self-join),
//     run on the pattern engine's dual-tree k-NN. The build is
//     deterministic at every thread count: the traversal forks only on
//     query nodes, so each point's candidate list is filled by one task in
//     the serial visiting order, and pruning only ever skips candidates
//     farther than its final K-th distance.
//   * One row kernel: the graph keeps its points point-contiguous
//     (row-major at every dimension), and both the build's row re-scoring
//     and the search's candidate distances run batch::row_sq_dists
//     (kernels/batch.h) over scattered rows. The per-pair accumulation
//     visits dimensions in ascending order, exactly like the scalar
//     helpers, so every distance the graph reports is bitwise-equal to what
//     the exact engine computes for the same pair.
//   * Immutable after construction: a snapshot carries the graph alongside
//     its trees (tree/snapshot.h), builds it over the snapshot's own
//     kd-tree, and publishes it with the same epoch pointer swap; any
//     number of threads may search concurrently.
//   * Observability: builds and queries emit index/graph/* counters and
//     timers through the obs layer (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "tree/kdtree.h"
#include "util/common.h"

namespace portal {

/// Build-time knobs. `degree` fixes the rows; `seed` only shapes the
/// search-seed permutation (the search's entry points), never a row. Two
/// builds with equal options over equal data are bitwise-identical,
/// parallel or not.
struct KnnGraphOptions {
  index_t degree = 20;  // adjacency row width (clamped to size - 1)
  std::uint64_t seed = 0x706f7274616cULL;
  bool parallel_build = true;
};

struct KnnGraphStats {
  index_t rounds = 0;            // always 0: the exact build has no rounds
  std::uint64_t dist_evals = 0;  // point pairs evaluated by the build
  double build_seconds = 0;
};

/// Immutable exact k-NN graph over a dataset, in *original* point
/// order (no permutation: neighbor ids and search results are client ids
/// directly). Distances are squared Euclidean internally -- the structural
/// ordering is identical for Euclidean, and the serve layer takes the sqrt
/// at the edge exactly like the exact engine does.
class KnnGraph {
 public:
  /// Builds the graph. `tree`, when given, is a kd-tree already built over
  /// `data` (the snapshot's); the all-kNN program runs on it instead of
  /// building its own. Rows can differ with the tree only in which ids win
  /// a tie at the K-th distance. Throws std::invalid_argument on an empty
  /// dataset (matching TreeSnapshot::build) or a tree over other data. A
  /// single-point dataset yields a valid graph of degree 0.
  explicit KnnGraph(const Dataset& data, const KnnGraphOptions& options = {},
                    std::shared_ptr<const KdTree> tree = nullptr);

  index_t size() const { return data_.size(); }
  index_t dim() const { return data_.dim(); }
  /// Actual row width: min(options.degree, size - 1).
  index_t degree() const { return degree_; }
  /// The graph's own copy of the points, row-major at every dimension (the
  /// layout the search reads candidates in), in original order.
  const Dataset& data() const { return data_; }
  const KnnGraphStats& stats() const { return stats_; }
  /// The fixed search-seed permutation (a function of options.seed alone):
  /// a search enters the graph at every component representative, then at
  /// these ids in order until its beam is full.
  const std::vector<index_t>& seed_order() const { return seed_order_; }

  /// Point i's neighbor ids / squared distances, ascending by
  /// (distance, id). Valid for i in [0, size()); degree() entries each.
  const index_t* neighbor_ids(index_t i) const {
    return adj_.data() + i * degree_;
  }
  const real_t* neighbor_sq(index_t i) const {
    return adj_sq_.data() + i * degree_;
  }

  /// Point i's *reverse* neighbors: points that list i in their row, capped
  /// at 2 * degree() (first occurrences in ascending-id order). The search
  /// expands the symmetrized graph -- forward rows alone are short-range
  /// only and navigate poorly from distant seeds; the reverse edges are
  /// what let the beam walk into a query's true neighborhood.
  const index_t* reverse_ids(index_t i) const {
    return rev_ids_.data() + rev_off_[static_cast<std::size_t>(i)];
  }
  index_t reverse_count(index_t i) const {
    return rev_off_[static_cast<std::size_t>(i) + 1] -
           rev_off_[static_cast<std::size_t>(i)];
  }

  /// Reusable per-thread search scratch; sized lazily, never shared. The
  /// visited stamps are O(size) but allocated once and generation-tagged, so
  /// repeated searches touch only the entries they visit. One scratch may
  /// serve graphs of any size in turn (a serve workspace keeps one across
  /// publishes).
  struct SearchScratch {
    std::vector<std::uint64_t> visited;
    std::uint64_t generation = 0;
    std::vector<real_t> beam_sq;
    std::vector<index_t> beam_ids;
    std::vector<char> expanded;
    std::vector<index_t> cand_ids;  // one batch of candidates to score
    std::vector<real_t> cand_sq;    // their squared distances
    // Per-search effort, overwritten by every call (the serve layer folds
    // them into TraversalStats).
    std::uint64_t hops = 0;
    std::uint64_t dist_evals = 0;
  };

  /// Best-first beam search: returns up to `k` approximate nearest ids with
  /// their squared Euclidean distances, ascending by (distance, id). The
  /// beam keeps the best max(beam, k) candidates seen; the search expands
  /// the nearest unexpanded beam entry until the whole beam is expanded.
  /// Seeds are every connected-component representative (so no part of a
  /// disconnected graph is unreachable at any width) followed by entries
  /// of a fixed build-time pseudo-random permutation up to max(beam, k)
  /// distinct ids -- deterministic, spread across the dataset without
  /// aliasing against its ordering (a stride sample can strand whole
  /// components unseeded on clustered data), covering every point when
  /// the beam spans the dataset. Equal inputs always return equal
  /// results. Returns the number of slots filled
  /// (min(k, size())). Distances are bitwise-equal to the scalar
  /// ascending-dimension accumulation for every returned pair.
  index_t search(const real_t* query, index_t k, index_t beam,
                 SearchScratch& scratch, real_t* out_sq,
                 index_t* out_ids) const;

 private:
  Dataset data_;  // row-major, original order -- ids below are client ids
  index_t degree_ = 0;
  std::vector<index_t> adj_;  // size * degree ids, row-sorted by (sq, id)
  std::vector<real_t> adj_sq_;
  std::vector<index_t> rev_off_;  // CSR over the capped reverse edges
  std::vector<index_t> rev_ids_;
  std::vector<index_t> seed_order_;  // fixed search-seed permutation
  std::vector<index_t> comp_reps_;   // min-id rep per connected component
  KnnGraphStats stats_;
};

} // namespace portal
