// Tests for src/traversal: Algorithm 1's contract -- every leaf tuple is
// evaluated exactly once in the absence of pruning, pruning cuts subtrees,
// parallel and serial traversals produce identical coverage, and the general
// m-way recursion agrees with the dual specialization.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "data/generators.h"
#include "traversal/multitree.h"
#include "tree/kdtree.h"
#include "util/threading.h"

namespace portal {
namespace {

/// Rule set that records every base-case pair and counts covered point pairs.
struct RecordingRules {
  const KdTree* qtree = nullptr;
  const KdTree* rtree = nullptr;
  std::atomic<std::uint64_t> point_pairs{0};
  std::mutex mutex;
  std::set<std::pair<index_t, index_t>> leaf_pairs;

  bool prune_or_approx(index_t, index_t) { return false; }

  real_t score(index_t q, index_t r) {
    return qtree->node(q).box.min_sq_dist(rtree->node(r).box);
  }

  void base_case(index_t q, index_t r) {
    point_pairs.fetch_add(static_cast<std::uint64_t>(qtree->node(q).count()) *
                              static_cast<std::uint64_t>(rtree->node(r).count()),
                          std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex);
    const bool inserted = leaf_pairs.insert({q, r}).second;
    EXPECT_TRUE(inserted) << "leaf pair visited twice: " << q << "," << r;
  }
};

TEST(DualTraverse, CoversEveryPointPairExactlyOnce) {
  const Dataset qdata = make_gaussian_mixture(300, 3, 2, 1);
  const Dataset rdata = make_gaussian_mixture(450, 3, 2, 2);
  const KdTree qtree(qdata, 16);
  const KdTree rtree(rdata, 8);

  RecordingRules rules;
  rules.qtree = &qtree;
  rules.rtree = &rtree;
  TraversalOptions options;
  options.parallel = false;
  const TraversalStats stats = dual_traverse(qtree, rtree, rules, options);

  EXPECT_EQ(rules.point_pairs.load(),
            static_cast<std::uint64_t>(qdata.size()) * rdata.size());
  EXPECT_EQ(rules.leaf_pairs.size(),
            static_cast<std::size_t>(qtree.stats().num_leaves) *
                static_cast<std::size_t>(rtree.stats().num_leaves));
  EXPECT_EQ(stats.base_cases, rules.leaf_pairs.size());
  EXPECT_EQ(stats.prunes, 0u);
  EXPECT_GE(stats.pairs_visited, stats.base_cases);
}

TEST(DualTraverse, ParallelMatchesSerialCoverage) {
  const Dataset data = make_gaussian_mixture(500, 2, 3, 3);
  const KdTree tree(data, 8);

  RecordingRules serial_rules, parallel_rules;
  serial_rules.qtree = serial_rules.rtree = &tree;
  parallel_rules.qtree = parallel_rules.rtree = &tree;

  TraversalOptions serial;
  serial.parallel = false;
  dual_traverse(tree, tree, serial_rules, serial);

  set_num_threads(4);
  TraversalOptions parallel;
  parallel.parallel = true;
  parallel.task_depth = 4;
  dual_traverse(tree, tree, parallel_rules, parallel);

  EXPECT_EQ(serial_rules.leaf_pairs, parallel_rules.leaf_pairs);
  EXPECT_EQ(serial_rules.point_pairs.load(), parallel_rules.point_pairs.load());
}

/// Non-adaptive rule set: pruning depends only on node geometry (a fixed
/// distance threshold), never on accumulated results, so the set of visited
/// pairs -- and therefore every TraversalStats counter -- is independent of
/// traversal order and thread interleaving.
struct FixedThresholdRules {
  const KdTree* qtree = nullptr;
  const KdTree* rtree = nullptr;
  real_t sq_threshold = 0;

  bool prune_or_approx(index_t q, index_t r) {
    return qtree->node(q).box.min_sq_dist(rtree->node(r).box) > sq_threshold;
  }
  real_t score(index_t q, index_t r) {
    return qtree->node(q).box.min_sq_dist(rtree->node(r).box);
  }
  void base_case(index_t, index_t) {}
};

TEST(DualTraverse, ParallelMatchesSerialStatsExactly) {
  // The per-task/per-thread stats counters must merge to EXACTLY the serial
  // totals (not approximately -- the merge is associative integer addition
  // and the visited set is order-independent for a non-adaptive rule set).
  const Dataset qdata = make_gaussian_mixture(600, 3, 3, 11);
  const Dataset rdata = make_gaussian_mixture(800, 3, 3, 12);
  const KdTree qtree(qdata, 8);
  const KdTree rtree(rdata, 8);

  FixedThresholdRules serial_rules{&qtree, &rtree, real_t(0.25)};
  TraversalOptions serial_opt;
  serial_opt.parallel = false;
  const TraversalStats serial = dual_traverse(qtree, rtree, serial_rules, serial_opt);
  // The threshold must actually bite for this to be a meaningful check.
  EXPECT_GT(serial.prunes, 0u);
  EXPECT_GT(serial.base_cases, 0u);

  set_num_threads(4);
  for (int task_depth : {1, 3, 6}) {
    FixedThresholdRules parallel_rules{&qtree, &rtree, real_t(0.25)};
    TraversalOptions parallel_opt;
    parallel_opt.parallel = true;
    parallel_opt.task_depth = task_depth;
    const TraversalStats parallel =
        dual_traverse(qtree, rtree, parallel_rules, parallel_opt);
    EXPECT_EQ(serial.pairs_visited, parallel.pairs_visited)
        << "task_depth=" << task_depth;
    EXPECT_EQ(serial.prunes, parallel.prunes) << "task_depth=" << task_depth;
    EXPECT_EQ(serial.base_cases, parallel.base_cases)
        << "task_depth=" << task_depth;
  }
}

/// Rule set that prunes everything: Algorithm 1 line 1-2 short-circuit.
struct PruneAllRules {
  bool prune_or_approx(index_t, index_t) { return true; }
  void base_case(index_t, index_t) { FAIL() << "base case after global prune"; }
};

TEST(DualTraverse, PruneCutsEntireTree) {
  const Dataset data = make_uniform(200, 2, 4);
  const KdTree tree(data, 8);
  PruneAllRules rules;
  const TraversalStats stats = dual_traverse(tree, tree, rules, {false, 0});
  EXPECT_EQ(stats.pairs_visited, 1u);
  EXPECT_EQ(stats.prunes, 1u);
  EXPECT_EQ(stats.base_cases, 0u);
}

/// Distance-based pruning must only ever skip node pairs, never point pairs
/// within unpruned leaves -- checked by counting covered pairs against an
/// explicit filter.
struct ThresholdRules {
  const KdTree* tree = nullptr;
  real_t h_sq = 0;
  std::atomic<std::uint64_t> candidates{0};

  bool prune_or_approx(index_t q, index_t r) {
    return tree->node(q).box.min_sq_dist(tree->node(r).box) > h_sq;
  }
  void base_case(index_t q, index_t r) {
    candidates.fetch_add(static_cast<std::uint64_t>(tree->node(q).count()) *
                             static_cast<std::uint64_t>(tree->node(r).count()),
                         std::memory_order_relaxed);
  }
};

TEST(DualTraverse, DistancePruningIsConservative) {
  const Dataset data = make_gaussian_mixture(400, 3, 4, 5);
  const KdTree tree(data, 16);
  ThresholdRules rules;
  rules.tree = &tree;
  rules.h_sq = 0.25;
  const TraversalStats stats = dual_traverse(tree, tree, rules, {false, 0});
  EXPECT_GT(stats.prunes, 0u);

  // Every point pair within h must be inside some surviving base case:
  // candidates >= exact close-pair count.
  std::uint64_t close_pairs = 0;
  std::vector<real_t> a(3), b(3);
  for (index_t i = 0; i < data.size(); ++i) {
    data.copy_point(i, a.data());
    for (index_t j = 0; j < data.size(); ++j) {
      data.copy_point(j, b.data());
      real_t sq = 0;
      for (int d = 0; d < 3; ++d) sq += (a[d] - b[d]) * (a[d] - b[d]);
      if (sq <= rules.h_sq) ++close_pairs;
    }
  }
  EXPECT_GE(rules.candidates.load(), close_pairs);
  EXPECT_LT(rules.candidates.load(),
            static_cast<std::uint64_t>(data.size()) * data.size());
}

/// m-way recording rules for multi_traverse.
struct MultiRecordingRules {
  std::vector<const KdTree*> trees;
  std::uint64_t tuples = 0;
  std::uint64_t point_tuples = 0;

  bool prune_or_approx(const std::vector<index_t>&) { return false; }

  void base_case(const std::vector<index_t>& nodes) {
    ++tuples;
    std::uint64_t product = 1;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      product *= static_cast<std::uint64_t>(trees[i]->node(nodes[i]).count());
    point_tuples += product;
  }
};

TEST(MultiTraverse, TwoWayMatchesDual) {
  const Dataset data = make_gaussian_mixture(300, 2, 2, 6);
  const KdTree tree(data, 16);

  MultiRecordingRules rules;
  rules.trees = {&tree, &tree};
  const TraversalStats stats =
      multi_traverse<KdTree>({&tree, &tree}, rules);

  const std::uint64_t leaves = static_cast<std::uint64_t>(tree.stats().num_leaves);
  EXPECT_EQ(rules.tuples, leaves * leaves);
  EXPECT_EQ(rules.point_tuples,
            static_cast<std::uint64_t>(data.size()) * data.size());
  EXPECT_EQ(stats.base_cases, rules.tuples);
}

TEST(MultiTraverse, ThreeWayCoversAllLeafTriples) {
  const Dataset data = make_uniform(120, 2, 7);
  const KdTree tree(data, 32);

  MultiRecordingRules rules;
  rules.trees = {&tree, &tree, &tree};
  multi_traverse<KdTree>({&tree, &tree, &tree}, rules);

  const std::uint64_t n = static_cast<std::uint64_t>(data.size());
  EXPECT_EQ(rules.point_tuples, n * n * n);
}

TEST(MultiTraverse, PruneShortCircuits) {
  const Dataset data = make_uniform(100, 2, 8);
  const KdTree tree(data, 16);
  struct Prune {
    bool prune_or_approx(const std::vector<index_t>&) { return true; }
    void base_case(const std::vector<index_t>&) {
      FAIL() << "must not reach base case";
    }
  } rules;
  const TraversalStats stats = multi_traverse<KdTree>({&tree, &tree}, rules);
  EXPECT_EQ(stats.pairs_visited, 1u);
  EXPECT_EQ(stats.prunes, 1u);
}

} // namespace
} // namespace portal

// ---------------------------------------------------------------------------
// SplitPolicy::Larger over octrees: coverage must be identical to Both.
#include "data/generators.h"
#include "tree/octree.h"

namespace portal {
namespace {

struct OctreeCoverage {
  const Octree* tree = nullptr;
  std::atomic<std::uint64_t> point_pairs{0};

  bool prune_or_approx(index_t, index_t) { return false; }
  void base_case(index_t q, index_t r) {
    point_pairs.fetch_add(static_cast<std::uint64_t>(tree->node(q).count()) *
                              static_cast<std::uint64_t>(tree->node(r).count()),
                          std::memory_order_relaxed);
  }
};

TEST(DualTraverse, LargerSplitCoversEveryPairOnOctree) {
  const ParticleSet set = make_elliptical(800, 55);
  const Octree tree(set.positions, set.masses, 8);

  OctreeCoverage both, larger;
  both.tree = larger.tree = &tree;
  TraversalOptions both_opt;
  both_opt.parallel = false;
  both_opt.split = SplitPolicy::Both;
  TraversalOptions larger_opt;
  larger_opt.parallel = false;
  larger_opt.split = SplitPolicy::Larger;
  const TraversalStats both_stats = dual_traverse(tree, tree, both, both_opt);
  const TraversalStats larger_stats = dual_traverse(tree, tree, larger, larger_opt);

  const std::uint64_t n = static_cast<std::uint64_t>(set.positions.size());
  EXPECT_EQ(both.point_pairs.load(), n * n);
  EXPECT_EQ(larger.point_pairs.load(), n * n);
  // Without pruning both policies reach every leaf pair (the visit-count win
  // of Larger only materializes when a MAC prunes subtrees; the Barnes-Hut
  // benches measure that). Both must at least terminate with sane stats.
  EXPECT_GT(both_stats.base_cases, 0u);
  EXPECT_EQ(both_stats.prunes, 0u);
  EXPECT_EQ(larger_stats.prunes, 0u);
}

} // namespace
} // namespace portal

// ---------------------------------------------------------------------------
// Single-tree traversal module (the baselines' engine).
#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/batch.h"
#include "kernels/fastmath.h"
#include "problems/common.h"
#include "problems/kde.h"
#include "problems/knn.h"
#include "traversal/singletree.h"

namespace portal {
namespace {

/// Counts points seen, with an optional take-radius emulating a MAC.
struct SingleCountRules {
  const KdTree* tree = nullptr;
  const real_t* qpt = nullptr;
  real_t take_sq = -1; // bulk-take nodes entirely within this radius
  std::uint64_t points = 0;

  bool prune_or_take(index_t node) {
    if (take_sq < 0) return false;
    if (tree->node(node).box.max_sq_dist_point(qpt) < take_sq) {
      points += static_cast<std::uint64_t>(tree->node(node).count());
      return true;
    }
    return false;
  }
  void base_case(index_t node) {
    points += static_cast<std::uint64_t>(tree->node(node).count());
  }
  real_t score(index_t node) { return tree->node(node).box.min_sq_dist_point(qpt); }
};

TEST(SingleTraverse, VisitsEveryLeafExactlyOnce) {
  const Dataset data = make_gaussian_mixture(700, 3, 3, 66);
  const KdTree tree(data, 16);
  std::vector<real_t> qpt(3, 0);
  SingleCountRules rules;
  rules.tree = &tree;
  rules.qpt = qpt.data();
  const TraversalStats stats = single_traverse(tree, rules);
  EXPECT_EQ(rules.points, static_cast<std::uint64_t>(data.size()));
  EXPECT_EQ(stats.base_cases,
            static_cast<std::uint64_t>(tree.stats().num_leaves));
  EXPECT_EQ(stats.prunes, 0u);
}

TEST(SingleTraverse, BulkTakeStillCoversEveryPoint) {
  const Dataset data = make_gaussian_mixture(900, 3, 3, 67);
  const KdTree tree(data, 8);
  std::vector<real_t> qpt(3);
  tree.data().copy_point(0, qpt.data());
  SingleCountRules rules;
  rules.tree = &tree;
  rules.qpt = qpt.data();
  rules.take_sq = 1e9; // everything near: the root is taken whole
  const TraversalStats stats = single_traverse(tree, rules);
  EXPECT_EQ(rules.points, static_cast<std::uint64_t>(data.size()));
  EXPECT_EQ(stats.pairs_visited, 1u); // root consumed immediately
}

// ---------------------------------------------------------------------------
// Batch-of-queries single-tree search over SoA tiles (the per-query flavor of
// the batched base cases): each query descends the reference tree and leaves
// evaluate through batch::sq_dists on the tree's mirror. Verified three ways:
// against brute force, against the dual-tree expert, and batched-vs-scalar
// (which must be EXACT -- identical traversal, bitwise-identical base case).
// ---------------------------------------------------------------------------

struct SingleKnnRules {
  const KdTree* tree = nullptr;
  const real_t* qpt = nullptr;
  index_t k = 1;
  bool batch = true;
  std::vector<real_t> dists;     // leaf scratch
  std::vector<real_t> best_sq;   // ascending, size <= k
  std::vector<index_t> best_idx; // tree-order indices, parallel to best_sq

  real_t worst_sq() const {
    return static_cast<index_t>(best_sq.size()) < k
               ? std::numeric_limits<real_t>::infinity()
               : best_sq.back();
  }

  void offer(real_t sq, index_t idx) {
    if (sq >= worst_sq()) return;
    auto pos = std::upper_bound(best_sq.begin(), best_sq.end(), sq);
    const auto at = pos - best_sq.begin();
    best_sq.insert(pos, sq);
    best_idx.insert(best_idx.begin() + at, idx);
    if (static_cast<index_t>(best_sq.size()) > k) {
      best_sq.pop_back();
      best_idx.pop_back();
    }
  }

  bool prune_or_take(index_t node) {
    return tree->node(node).box.min_sq_dist_point(qpt) > worst_sq();
  }

  void base_case(index_t node) {
    const KdNode& n = tree->node(node);
    const index_t count = n.count();
    if (batch)
      batch::sq_dists(tree->mirror().tile(n.begin, count), qpt, dists.data());
    else
      sq_dists_to_range(tree->data(), n.begin, n.end, qpt, dists.data());
    for (index_t j = 0; j < count; ++j) offer(dists[j], n.begin + j);
  }

  real_t score(index_t node) {
    return tree->node(node).box.min_sq_dist_point(qpt);
  }
};

/// Batch of queries through the single-tree search; results in original
/// reference indexing, natural (un-squared) distances, like knn_expert.
KnnResult single_tree_knn(const Dataset& query, const KdTree& tree, index_t k,
                          bool batch) {
  KnnResult result;
  result.k = k;
  std::vector<real_t> qpt(query.dim());
  SingleKnnRules rules;
  rules.tree = &tree;
  rules.k = k;
  rules.batch = batch;
  rules.dists.resize(tree.stats().max_leaf_count);
  for (index_t i = 0; i < query.size(); ++i) {
    query.copy_point(i, qpt.data());
    rules.qpt = qpt.data();
    rules.best_sq.clear();
    rules.best_idx.clear();
    single_traverse(tree, rules);
    for (index_t j = 0; j < k; ++j) {
      result.indices.push_back(tree.perm()[rules.best_idx[j]]);
      result.distances.push_back(std::sqrt(rules.best_sq[j]));
    }
  }
  return result;
}

TEST(SingleTraverse, BatchedKnnMatchesBruteForceAndDualTree) {
  const Dataset query = make_gaussian_mixture(90, 3, 3, 69);
  const Dataset reference = make_gaussian_mixture(131, 3, 3, 70);
  const index_t k = 3;
  const KdTree tree(reference, 10); // 131 points / leaf 10: ragged tiles

  const KnnResult batched = single_tree_knn(query, tree, k, true);
  const KnnResult brute = knn_bruteforce(query, reference, k);
  KnnOptions dual_options;
  dual_options.k = k;
  dual_options.leaf_size = 10;
  dual_options.parallel = false;
  const KnnResult dual = knn_expert(query, reference, dual_options);

  ASSERT_EQ(batched.indices.size(), brute.indices.size());
  for (std::size_t i = 0; i < batched.indices.size(); ++i) {
    EXPECT_EQ(batched.indices[i], brute.indices[i]) << "at " << i;
    EXPECT_EQ(batched.indices[i], dual.indices[i]) << "at " << i;
    EXPECT_NEAR(batched.distances[i], brute.distances[i],
                1e-12 * std::max(brute.distances[i], real_t(1)))
        << "at " << i;
  }
}

TEST(SingleTraverse, ScoredKnnPrunesAndMatchesBruteForceAcrossLeafSizes) {
  // Nearest-first descent at leaf sizes from one point per leaf to a few
  // large tiles: the scored order must still find the exact neighbors, and
  // the worst-distance bound must actually cut subtrees.
  const Dataset query = make_gaussian_mixture(40, 3, 3, 75);
  const Dataset reference = make_gaussian_mixture(211, 3, 3, 76);
  const index_t k = 4;
  const KnnResult brute = knn_bruteforce(query, reference, k);
  for (const index_t leaf : {index_t(1), index_t(7), index_t(64)}) {
    SCOPED_TRACE("leaf " + std::to_string(leaf));
    const KdTree tree(reference, leaf);
    std::vector<real_t> qpt(query.dim());
    SingleKnnRules rules;
    rules.tree = &tree;
    rules.k = k;
    rules.dists.resize(tree.stats().max_leaf_count);
    std::uint64_t prunes = 0;
    for (index_t i = 0; i < query.size(); ++i) {
      query.copy_point(i, qpt.data());
      rules.qpt = qpt.data();
      rules.best_sq.clear();
      rules.best_idx.clear();
      const TraversalStats stats = single_traverse(tree, rules);
      prunes += stats.prunes;
      ASSERT_EQ(static_cast<index_t>(rules.best_idx.size()), k);
      for (index_t j = 0; j < k; ++j) {
        const std::size_t slot = static_cast<std::size_t>(i * k + j);
        EXPECT_EQ(tree.perm()[rules.best_idx[static_cast<std::size_t>(j)]],
                  brute.indices[slot])
            << "query " << i << " rank " << j;
      }
    }
    if (leaf < 64) EXPECT_GT(prunes, 0u);
  }
}

TEST(SingleTraverse, BatchedKnnIsBitwiseEqualToScalar) {
  // Same descent, same leaves; only the base-case evaluation differs. The
  // batched tile kernel accumulates per lane in the same dimension order as
  // the scalar helper, so agreement must be exact, including at leaf size 1
  // (degenerate single-lane tiles).
  for (index_t leaf : {index_t(1), index_t(7), index_t(16)}) {
    const Dataset query = make_gaussian_mixture(60, 5, 2, 71);
    const Dataset reference = make_gaussian_mixture(97, 5, 2, 72);
    const KdTree tree(reference, leaf);
    const KnnResult batched = single_tree_knn(query, tree, 4, true);
    const KnnResult scalar = single_tree_knn(query, tree, 4, false);
    ASSERT_EQ(batched.indices, scalar.indices) << "leaf " << leaf;
    ASSERT_EQ(batched.distances, scalar.distances) << "leaf " << leaf;
  }
}

/// Exhaustive single-tree Gaussian sum over tiles (no pruning): the KDE
/// base case without the approximation rule.
struct SingleKdeRules {
  const KdTree* tree = nullptr;
  const real_t* qpt = nullptr;
  real_t inv_two_sigma_sq = 1;
  bool batch = true;
  std::vector<real_t> dists;
  std::vector<real_t> vals;
  real_t total = 0;

  bool prune_or_take(index_t) { return false; }
  void base_case(index_t node) {
    const KdNode& n = tree->node(node);
    const index_t count = n.count();
    if (batch) {
      batch::sq_dists(tree->mirror().tile(n.begin, count), qpt, dists.data());
      batch::gaussian_sq(dists.data(), count, inv_two_sigma_sq, vals.data());
      for (index_t j = 0; j < count; ++j) total += vals[j];
    } else {
      sq_dists_to_range(tree->data(), n.begin, n.end, qpt, dists.data());
      for (index_t j = 0; j < count; ++j)
        total += det_exp(-dists[j] * inv_two_sigma_sq);
    }
  }
};

TEST(SingleTraverse, BatchedKdeSumMatchesBruteForceAndScalar) {
  const Dataset query = make_gaussian_mixture(50, 3, 2, 73);
  const Dataset reference = make_gaussian_mixture(83, 3, 2, 74);
  const real_t sigma = real_t(0.8);
  const KdTree tree(reference, 12);
  const KdeResult brute = kde_bruteforce(query, reference, sigma,
                                         /*normalize=*/false);

  std::vector<real_t> qpt(query.dim());
  SingleKdeRules rules;
  rules.tree = &tree;
  rules.inv_two_sigma_sq = 1 / (2 * sigma * sigma);
  rules.dists.resize(tree.stats().max_leaf_count);
  rules.vals.resize(tree.stats().max_leaf_count);
  for (index_t i = 0; i < query.size(); ++i) {
    query.copy_point(i, qpt.data());
    rules.qpt = qpt.data();

    rules.batch = true;
    rules.total = 0;
    single_traverse(tree, rules);
    const real_t batched = rules.total;

    rules.batch = false;
    rules.total = 0;
    single_traverse(tree, rules);
    const real_t scalar = rules.total;

    // Identical leaf visit order + bitwise base case: exact.
    EXPECT_EQ(batched, scalar) << "query " << i;
    // Brute force sums in a different (dataset) order: float-noise only.
    EXPECT_NEAR(batched, brute.densities[i],
                1e-12 * std::max(std::abs(brute.densities[i]), real_t(1)))
        << "query " << i;
  }
}

TEST(SingleTraverse, WorksOnOctrees) {
  const ParticleSet set = make_elliptical(600, 68);
  const Octree tree(set.positions, set.masses, 8);
  struct Rules {
    const Octree* tree = nullptr;
    std::uint64_t points = 0;
    bool prune_or_take(index_t) { return false; }
    void base_case(index_t node) {
      points += static_cast<std::uint64_t>(tree->node(node).count());
    }
  } rules;
  rules.tree = &tree;
  single_traverse(tree, rules);
  EXPECT_EQ(rules.points, static_cast<std::uint64_t>(set.positions.size()));
}

} // namespace
} // namespace portal

// ---------------------------------------------------------------------------
// The descent frontier (NodeFrontier, traversal/singletree.h): bound safety
// on degenerate trees, leaf order, and reentrancy of single_traverse.
#include <thread>

namespace portal {
namespace {

TEST(NodeFrontier, GrowsPastInlineCapacityAndStaysLifo) {
  NodeFrontier frontier;
  const index_t n = NodeFrontier::kInlineCapacity * 5 + 3;
  for (index_t i = 0; i < n; ++i) frontier.push(i);
  EXPECT_TRUE(frontier.spilled());
  EXPECT_EQ(frontier.size(), n);
  for (index_t i = n - 1; i >= 0; --i) {
    ASSERT_EQ(frontier.top(), i);
    ASSERT_EQ(frontier.pop(), i);
  }
  EXPECT_TRUE(frontier.empty());
}

TEST(NodeFrontier, SpillCounterCountsEachGrowthOnce) {
  obs::set_enabled(true);
  obs::reset();
  {
    // Filling the inline buffer exactly never touches the heap.
    NodeFrontier frontier;
    for (index_t i = 0; i < NodeFrontier::kInlineCapacity; ++i)
      frontier.push(i);
    EXPECT_FALSE(frontier.spilled());
  }
  const std::uint64_t inline_spills =
      obs::collect().counter("traversal/single/frontier_spills");
  {
    // 5 * 512 + 3 entries: capacity doubles 512 -> 1024 -> 2048 -> 4096.
    NodeFrontier frontier;
    for (index_t i = 0; i < NodeFrontier::kInlineCapacity * 5 + 3; ++i)
      frontier.push(i);
    EXPECT_TRUE(frontier.spilled());
  }
  const std::uint64_t spills =
      obs::collect().counter("traversal/single/frontier_spills");
  obs::set_enabled(false);
  obs::reset();
  EXPECT_EQ(inline_spills, 0u);
  EXPECT_EQ(spills, 3u);
}

/// Degenerate externally-built tree: a right spine of `depth` internal nodes,
/// each hanging one pending leaf. The unscored descent pops the spine child
/// first, so the pending leaves pile up on the frontier -- max occupancy is
/// `depth` entries. With depth > 512 this overflowed the fixed
/// `index_t stack[512]` the old single_traverse carried (ASan flagged the
/// write past the array); NodeFrontier spills to the heap instead. No in-tree
/// builder produces this shape (binary median splits are balanced, the octree
/// caps depth at 60) -- which is exactly why the old bound went unnoticed.
struct ChainNode {
  index_t spine = -1; // next spine node; -1 = leaf
  index_t leaf = -1;  // pending leaf child
};

struct ChainTree {
  index_t depth;
  std::vector<ChainNode> nodes; // [0, depth) spine, [depth, 2*depth) leaves
  explicit ChainTree(index_t d) : depth(d), nodes(static_cast<std::size_t>(2 * d)) {
    for (index_t i = 0; i + 1 < d; ++i) {
      nodes[static_cast<std::size_t>(i)].spine = i + 1;
      nodes[static_cast<std::size_t>(i)].leaf = d + i;
    }
  }
  index_t root_index() const { return 0; }
  const ChainNode& node(index_t i) const {
    return nodes[static_cast<std::size_t>(i)];
  }
};

bool tree_node_is_leaf(const ChainTree& tree, index_t n) {
  return tree.node(n).spine < 0;
}

int tree_children(const ChainTree& tree, index_t n, index_t out[8]) {
  const ChainNode& node = tree.node(n);
  if (node.spine < 0) return 0;
  out[0] = node.spine;
  out[1] = node.leaf;
  return 2;
}

struct ChainCountRules {
  std::uint64_t leaves = 0;
  bool prune_or_take(index_t) { return false; }
  void base_case(index_t) { ++leaves; }
};

TEST(SingleTraverse, DeepDegenerateTreeDoesNotOverflowStack) {
  const index_t depth = NodeFrontier::kInlineCapacity + 88; // 600-node spine
  const ChainTree tree(depth);
  ChainCountRules rules;
  obs::set_enabled(true);
  obs::reset();
  const TraversalStats stats = single_traverse(tree, rules);
  const std::uint64_t spills =
      obs::collect().counter("traversal/single/frontier_spills");
  obs::set_enabled(false);
  obs::reset();
  // depth-1 pending leaves plus the terminal spine node.
  EXPECT_EQ(rules.leaves, static_cast<std::uint64_t>(depth));
  EXPECT_EQ(stats.base_cases, static_cast<std::uint64_t>(depth));
  EXPECT_EQ(stats.prunes, 0u);
  // ~600 pending entries outgrow the 512-entry inline buffer once; one
  // doubling holds them.
  EXPECT_EQ(spills, 1u);
}

TEST(SingleTraverse, DuplicateAndCollinearPointsAtLeafSizeOne) {
  // All-duplicate and all-collinear datasets at leaf_size 1: the positional
  // median split keeps even these balanced, so the descent must complete with
  // every point covered (robustness companion to the ChainTree overflow
  // regression, using the real builders end to end).
  const index_t n = 512;
  for (int shape = 0; shape < 2; ++shape) {
    std::vector<real_t> raw(static_cast<std::size_t>(n) * 3);
    for (index_t i = 0; i < n; ++i)
      for (index_t d = 0; d < 3; ++d)
        raw[static_cast<std::size_t>(i * 3 + d)] =
            shape == 0 ? real_t(1.5) : real_t(i) * (d == 0 ? 1 : 0);
    const Dataset data = Dataset::from_row_major(raw.data(), n, 3);
    std::vector<real_t> qpt(3, 0);

    const KdTree kd(data, 1);
    SingleCountRules kd_rules;
    kd_rules.tree = &kd;
    kd_rules.qpt = qpt.data();
    single_traverse(kd, kd_rules);
    EXPECT_EQ(kd_rules.points, static_cast<std::uint64_t>(n)) << "shape " << shape;
  }
}

/// Unscored kd rules that record the order their leaves are evaluated in.
struct KdLeafOrder {
  const KdTree* tree = nullptr;
  std::vector<index_t> begins;
  std::uint64_t points = 0;
  bool prune_or_take(index_t) { return false; }
  void base_case(index_t node) {
    begins.push_back(tree->node(node).begin);
    points += static_cast<std::uint64_t>(tree->node(node).count());
  }
};

TEST(SingleTraverse, UnscoredDescentEvaluatesLeavesInAscendingOrder) {
  // Without score(), children are pushed right-to-left, so leaves run in
  // ascending permuted order: the serving engine's bitwise SUM determinism
  // relies on this (src/serve/engine.h).
  const Dataset reference = make_gaussian_mixture(300, 3, 3, 77);
  const KdTree tree(reference, 16);
  KdLeafOrder rules;
  rules.tree = &tree;
  const TraversalStats stats = single_traverse(tree, rules);
  EXPECT_EQ(rules.points, static_cast<std::uint64_t>(reference.size()));
  EXPECT_EQ(rules.begins.size(), stats.base_cases);
  EXPECT_EQ(stats.base_cases,
            static_cast<std::uint64_t>(tree.stats().num_leaves));
  for (std::size_t i = 1; i < rules.begins.size(); ++i)
    EXPECT_GT(rules.begins[i], rules.begins[i - 1]) << "leaf " << i;
}

TEST(SingleTraverse, ReentrantAcrossThreads) {
  // One shared immutable tree, one descent per thread: each concurrent
  // answer (and its traversal counters) must equal the serial descent's.
  const Dataset query = make_gaussian_mixture(8, 3, 3, 80);
  const Dataset reference = make_gaussian_mixture(257, 3, 3, 81);
  const KdTree tree(reference, 8);
  const std::size_t nq = static_cast<std::size_t>(query.size());

  std::vector<std::vector<real_t>> qpts(nq, std::vector<real_t>(query.dim()));
  std::vector<SingleKnnRules> serial(nq);
  std::vector<TraversalStats> serial_stats(nq);
  for (std::size_t t = 0; t < nq; ++t) {
    query.copy_point(static_cast<index_t>(t), qpts[t].data());
    serial[t].tree = &tree;
    serial[t].qpt = qpts[t].data();
    serial[t].k = 3;
    serial[t].dists.resize(tree.stats().max_leaf_count);
    serial_stats[t] = single_traverse(tree, serial[t]);
  }

  std::vector<std::thread> threads;
  std::vector<int> ok(nq, 0);
  for (std::size_t t = 0; t < nq; ++t) {
    threads.emplace_back([&, t] {
      SingleKnnRules rules = serial[t];
      rules.best_sq.clear();
      rules.best_idx.clear();
      const TraversalStats stats = single_traverse(tree, rules);
      ok[t] = rules.best_sq == serial[t].best_sq &&
              rules.best_idx == serial[t].best_idx &&
              stats.pairs_visited == serial_stats[t].pairs_visited &&
              stats.prunes == serial_stats[t].prunes &&
              stats.base_cases == serial_stats[t].base_cases;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < nq; ++t)
    EXPECT_TRUE(ok[t]) << "thread " << t;
}

} // namespace
} // namespace portal
