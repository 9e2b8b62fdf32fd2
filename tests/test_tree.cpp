// Tests for src/tree: bounding-box geometry, kd-tree invariants (TEST_P
// sweeps over sizes / dims / leaf sizes), and octree invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "tree/bbox.h"
#include "tree/kdtree.h"
#include "tree/octree.h"
#include "util/rng.h"
#include "util/threading.h"

namespace portal {
namespace {

TEST(BBox, IncludeAndExtents) {
  BBox box(2);
  const real_t p1[2] = {1, 5};
  const real_t p2[2] = {3, -1};
  box.include_point(p1);
  box.include_point(p2);
  EXPECT_DOUBLE_EQ(box.lo(0), 1);
  EXPECT_DOUBLE_EQ(box.hi(0), 3);
  EXPECT_DOUBLE_EQ(box.lo(1), -1);
  EXPECT_DOUBLE_EQ(box.hi(1), 5);
  EXPECT_EQ(box.widest_dim(), 1);
  EXPECT_DOUBLE_EQ(box.widest_extent(), 6);
  EXPECT_DOUBLE_EQ(box.center(0), 2);
  EXPECT_DOUBLE_EQ(box.sq_diagonal(), 4 + 36);
  EXPECT_TRUE(box.contains(p1));
  const real_t outside[2] = {0, 0};
  EXPECT_FALSE(box.contains(outside));
}

TEST(BBox, BoxToBoxDistances) {
  BBox a(2), b(2), c(2);
  const real_t a1[2] = {0, 0}, a2[2] = {1, 1};
  const real_t b1[2] = {3, 0}, b2[2] = {4, 1};
  const real_t c1[2] = {0.5, 0.5}, c2[2] = {2, 2};
  a.include_point(a1);
  a.include_point(a2);
  b.include_point(b1);
  b.include_point(b2);
  c.include_point(c1);
  c.include_point(c2);
  // a and b separated by 2 along x only.
  EXPECT_DOUBLE_EQ(a.min_sq_dist(b), 4);
  EXPECT_DOUBLE_EQ(a.max_sq_dist(b), 16 + 1);
  EXPECT_DOUBLE_EQ(a.min_dist_l1(b), 2);
  EXPECT_DOUBLE_EQ(a.max_dist_l1(b), 5);
  EXPECT_DOUBLE_EQ(a.min_dist_linf(b), 2);
  EXPECT_DOUBLE_EQ(a.max_dist_linf(b), 4);
  // Overlapping boxes: zero min distance.
  EXPECT_DOUBLE_EQ(a.min_sq_dist(c), 0);
  EXPECT_DOUBLE_EQ(a.min_sq_dist(a), 0);
}

TEST(BBox, PointDistances) {
  BBox box(2);
  const real_t p1[2] = {0, 0}, p2[2] = {2, 2};
  box.include_point(p1);
  box.include_point(p2);
  const real_t inside[2] = {1, 1};
  const real_t outside[2] = {4, 1};
  EXPECT_DOUBLE_EQ(box.min_sq_dist_point(inside), 0);
  EXPECT_DOUBLE_EQ(box.min_sq_dist_point(outside), 4);
  // Farthest corner from (4, 1) is (0, 0) or (0, 2): 16 + 1.
  EXPECT_DOUBLE_EQ(box.max_sq_dist_point(outside), 16 + 1);
}

/// Property: box-to-box bounds sandwich the true distance of any pair of
/// contained points, for every metric.
TEST(BBox, BoundsSandwichPointDistances) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const index_t dim = 1 + static_cast<index_t>(rng.uniform_index(6));
    BBox a(dim), b(dim);
    std::vector<std::vector<real_t>> pa(5, std::vector<real_t>(dim));
    std::vector<std::vector<real_t>> pb(5, std::vector<real_t>(dim));
    for (auto& p : pa) {
      for (auto& v : p) v = rng.uniform(-3, 1);
      a.include_point(p.data());
    }
    for (auto& p : pb) {
      for (auto& v : p) v = rng.uniform(0, 4);
      b.include_point(p.data());
    }
    for (MetricKind kind : {MetricKind::SqEuclidean, MetricKind::Manhattan,
                            MetricKind::Chebyshev, MetricKind::Euclidean}) {
      const real_t lo = a.min_dist(kind, b);
      const real_t hi = a.max_dist(kind, b);
      for (const auto& x : pa)
        for (const auto& y : pb) {
          const real_t d =
              point_distance(kind, x.data(), 1, y.data(), 1, dim);
          EXPECT_GE(d, lo - 1e-9);
          EXPECT_LE(d, hi + 1e-9);
        }
    }
  }
}

// ---------------------------------------------------------------------------
// kd-tree invariants, swept over (n, dim, leaf_size).
class KdTreeInvariants
    : public testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(KdTreeInvariants, StructureIsValid) {
  const auto [n, dim, leaf_size] = GetParam();
  const Dataset data = make_gaussian_mixture(n, dim, 4, 77);
  const KdTree tree(data, leaf_size);

  // Permutation is a bijection.
  std::vector<index_t> seen(n, 0);
  for (index_t p : tree.perm()) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    ++seen[p];
  }
  for (index_t count : seen) EXPECT_EQ(count, 1);
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(tree.inverse_perm()[tree.perm()[i]], i);

  // Permuted data holds the same points.
  for (index_t i = 0; i < n; ++i)
    for (index_t d = 0; d < dim; ++d)
      EXPECT_DOUBLE_EQ(tree.data().coord(i, d), data.coord(tree.perm()[i], d));

  // Root covers everything; children partition parents; leaves respect q.
  EXPECT_EQ(tree.root().begin, 0);
  EXPECT_EQ(tree.root().end, n);
  index_t leaf_point_total = 0;
  for (index_t i = 0; i < tree.num_nodes(); ++i) {
    const KdNode& node = tree.node(i);
    ASSERT_LT(node.begin, node.end);
    if (node.is_leaf()) {
      EXPECT_LE(node.count(), leaf_size);
      leaf_point_total += node.count();
    } else {
      const KdNode& l = tree.node(node.left);
      const KdNode& r = tree.node(node.right);
      EXPECT_EQ(l.begin, node.begin);
      EXPECT_EQ(l.end, r.begin);
      EXPECT_EQ(r.end, node.end);
      EXPECT_EQ(l.parent, i);
      EXPECT_EQ(r.parent, i);
      EXPECT_EQ(l.depth, node.depth + 1);
      // Median split: halves sized within one point of each other.
      EXPECT_LE(std::abs(l.count() - r.count()), 1);
    }
    // Bounding boxes tight: every point inside.
    for (index_t p = node.begin; p < node.end; ++p) {
      std::vector<real_t> pt(dim);
      tree.data().copy_point(p, pt.data());
      EXPECT_TRUE(node.box.contains(pt.data()));
    }
  }
  EXPECT_EQ(leaf_point_total, n); // leaves partition the whole set
  EXPECT_EQ(tree.stats().num_leaves + (tree.num_nodes() - tree.stats().num_leaves),
            tree.num_nodes());
  EXPECT_GT(tree.stats().build_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeInvariants,
    testing::Values(std::make_tuple(1, 2, 8), std::make_tuple(7, 1, 1),
                    std::make_tuple(100, 3, 8), std::make_tuple(1000, 2, 32),
                    std::make_tuple(1000, 10, 16), std::make_tuple(257, 5, 4),
                    std::make_tuple(4096, 3, 64)));

TEST(KdTree, HandlesDuplicatePoints) {
  // All-identical points must not hang the splitter.
  std::vector<std::vector<real_t>> points(100, {1.0, 2.0, 3.0});
  const Dataset data = Dataset::from_points(points);
  const KdTree tree(data, 8);
  EXPECT_GT(tree.num_nodes(), 1);
  for (index_t i = 0; i < tree.num_nodes(); ++i) {
    if (tree.node(i).is_leaf()) {
      EXPECT_LE(tree.node(i).count(), 8);
    }
  }
}

TEST(KdTree, RejectsBadLeafSize) {
  const Dataset data = make_uniform(10, 2, 1);
  EXPECT_THROW(KdTree(data, 0), std::invalid_argument);
}

TEST(KdTree, DepthIsLogarithmic) {
  const Dataset data = make_uniform(10000, 3, 9);
  const KdTree tree(data, 16);
  // Median splits: height <= ceil(log2(n / leaf)) + 1 ~ 11.
  EXPECT_LE(tree.stats().height, 13);
}

// ---------------------------------------------------------------------------
// Parallel build determinism: the task-parallel build must produce a tree
// bit-for-bit identical to the serial build (node indices are preorder
// positions computed from subtree sizes alone; nth_element runs on identical
// subrange contents either way).

void ExpectIdenticalKdTrees(const KdTree& serial, const KdTree& parallel) {
  ASSERT_EQ(serial.num_nodes(), parallel.num_nodes());
  EXPECT_EQ(serial.perm(), parallel.perm());
  EXPECT_EQ(serial.inverse_perm(), parallel.inverse_perm());
  for (index_t i = 0; i < serial.num_nodes(); ++i) {
    const KdNode& a = serial.node(i);
    const KdNode& b = parallel.node(i);
    EXPECT_EQ(a.begin, b.begin) << "node " << i;
    EXPECT_EQ(a.end, b.end) << "node " << i;
    EXPECT_EQ(a.left, b.left) << "node " << i;
    EXPECT_EQ(a.right, b.right) << "node " << i;
    EXPECT_EQ(a.parent, b.parent) << "node " << i;
    EXPECT_EQ(a.depth, b.depth) << "node " << i;
    for (index_t d = 0; d < a.box.dim(); ++d) {
      EXPECT_EQ(a.box.lo(d), b.box.lo(d)) << "node " << i << " dim " << d;
      EXPECT_EQ(a.box.hi(d), b.box.hi(d)) << "node " << i << " dim " << d;
    }
  }
  EXPECT_EQ(serial.stats().num_nodes, parallel.stats().num_nodes);
  EXPECT_EQ(serial.stats().num_leaves, parallel.stats().num_leaves);
  EXPECT_EQ(serial.stats().height, parallel.stats().height);
  EXPECT_EQ(serial.stats().max_leaf_count, parallel.stats().max_leaf_count);
}

TEST(KdTreeParallelBuild, DegenerateInputsMatchSerial) {
  set_num_threads(4); // the task path needs >1 configured threads
  // All-duplicate points (nth_element on all-equal keys), large enough that
  // the parallel path actually spawns tasks.
  {
    std::vector<std::vector<real_t>> points(20000, {1.0, 2.0, 3.0});
    const Dataset data = Dataset::from_points(points);
    const KdTree serial(data, 8, /*parallel_build=*/false);
    const KdTree parallel(data, 8, /*parallel_build=*/true);
    ExpectIdenticalKdTrees(serial, parallel);
  }
  // n < leaf_size: single leaf either way.
  {
    const Dataset data = make_uniform(5, 3, 21);
    const KdTree serial(data, 8, false);
    const KdTree parallel(data, 8, true);
    ASSERT_EQ(parallel.num_nodes(), 1);
    EXPECT_TRUE(parallel.root().is_leaf());
    ExpectIdenticalKdTrees(serial, parallel);
  }
  // n = 0: empty tree, no nodes, no crash.
  {
    const Dataset data(0, 3);
    const KdTree serial(data, 8, false);
    const KdTree parallel(data, 8, true);
    EXPECT_EQ(parallel.num_nodes(), 0);
    EXPECT_TRUE(parallel.perm().empty());
    ExpectIdenticalKdTrees(serial, parallel);
  }
}

TEST(KdTreeParallelBuild, LargeRandomMatchesSerial) {
  set_num_threads(4);
  const Dataset data = make_gaussian_mixture(20000, 3, 4, 33);
  const KdTree serial(data, 16, false);
  const KdTree parallel(data, 16, true);
  ExpectIdenticalKdTrees(serial, parallel);
}

// ---------------------------------------------------------------------------
// Octree invariants.
class OctreeInvariants : public testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(OctreeInvariants, StructureIsValid) {
  const auto [n, leaf_size] = GetParam();
  const ParticleSet set = make_elliptical(n, 31);
  const Octree tree(set.positions, set.masses, leaf_size);

  // Permutation bijection and mass alignment.
  std::vector<index_t> seen(n, 0);
  for (index_t p : tree.perm()) ++seen[p];
  for (index_t c : seen) EXPECT_EQ(c, 1);
  for (index_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(tree.masses()[i], set.masses[tree.perm()[i]]);

  real_t root_mass = 0;
  for (real_t m : set.masses) root_mass += m;
  EXPECT_NEAR(tree.node(tree.root_index()).mass, root_mass, 1e-9);

  for (index_t i = 0; i < tree.num_nodes(); ++i) {
    const OctreeNode& node = tree.node(i);
    ASSERT_LT(node.begin, node.end);
    // Center of mass equals the mass-weighted mean of contained particles.
    real_t com[3] = {0, 0, 0};
    real_t mass = 0;
    for (index_t p = node.begin; p < node.end; ++p) {
      mass += tree.masses()[p];
      for (int d = 0; d < 3; ++d)
        com[d] += tree.masses()[p] * tree.positions().coord(p, d);
    }
    EXPECT_NEAR(node.mass, mass, 1e-12);
    for (int d = 0; d < 3; ++d)
      EXPECT_NEAR(node.com[d], com[d] / mass, 1e-9);

    if (!node.is_leaf()) { // NOLINT
      // Children partition the node's range.
      index_t covered = 0;
      for (index_t child : node.children) {
        if (child < 0) continue;
        const OctreeNode& cn = tree.node(child);
        covered += cn.count();
        EXPECT_GE(cn.begin, node.begin);
        EXPECT_LE(cn.end, node.end);
        EXPECT_DOUBLE_EQ(cn.half_width, node.half_width / 2);
      }
      EXPECT_EQ(covered, node.count());
    } else if (node.depth < 60) {
      EXPECT_LE(node.count(), leaf_size);
    }
    // Particles inside the cell cube.
    for (index_t p = node.begin; p < node.end; ++p)
      for (int d = 0; d < 3; ++d) {
        EXPECT_GE(tree.positions().coord(p, d),
                  node.center[d] - node.half_width - 1e-9);
        EXPECT_LE(tree.positions().coord(p, d),
                  node.center[d] + node.half_width + 1e-9);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OctreeInvariants,
                         testing::Values(std::make_tuple(1, 8),
                                         std::make_tuple(100, 4),
                                         std::make_tuple(2000, 16),
                                         std::make_tuple(5000, 1)));

TEST(Octree, RejectsNon3D) {
  const Dataset data = make_uniform(10, 2, 1);
  EXPECT_THROW(Octree(data, std::vector<real_t>(10, 1.0)), std::invalid_argument);
}

TEST(Octree, RejectsMassMismatch) {
  const Dataset data = make_uniform(10, 3, 1);
  EXPECT_THROW(Octree(data, std::vector<real_t>(9, 1.0)), std::invalid_argument);
}

TEST(Octree, HandlesCoincidentParticles) {
  std::vector<std::vector<real_t>> points(50, {0.5, 0.5, 0.5});
  const Dataset data = Dataset::from_points(points);
  const Octree tree(data, std::vector<real_t>(50, 1.0), 4);
  EXPECT_GE(tree.num_nodes(), 1);
  EXPECT_NEAR(tree.node(0).mass, 50.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Octree parallel-build determinism (mirrors the kd coverage above):
// `parallel_build` only parallelizes the materialization phase, so parallel
// and serial builds must be bit-identical in every observable field.
// ---------------------------------------------------------------------------

void ExpectIdenticalOctrees(const Octree& serial, const Octree& parallel) {
  ASSERT_EQ(serial.num_nodes(), parallel.num_nodes());
  EXPECT_EQ(serial.perm(), parallel.perm());
  EXPECT_EQ(serial.inverse_perm(), parallel.inverse_perm());
  EXPECT_EQ(serial.height(), parallel.height());
  EXPECT_EQ(serial.masses(), parallel.masses());
  for (index_t i = 0; i < serial.num_nodes(); ++i) {
    const OctreeNode& a = serial.node(i);
    const OctreeNode& b = parallel.node(i);
    EXPECT_EQ(a.begin, b.begin) << "node " << i;
    EXPECT_EQ(a.end, b.end) << "node " << i;
    EXPECT_EQ(a.leaf, b.leaf) << "node " << i;
    EXPECT_EQ(a.depth, b.depth) << "node " << i;
    EXPECT_EQ(a.mass, b.mass) << "node " << i;
    EXPECT_EQ(a.half_width, b.half_width) << "node " << i;
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(a.center[d], b.center[d]) << "node " << i << " dim " << d;
      EXPECT_EQ(a.com[d], b.com[d]) << "node " << i << " dim " << d;
    }
    for (int c = 0; c < 8; ++c)
      EXPECT_EQ(a.children[c], b.children[c]) << "node " << i << " child " << c;
    if (a.count() > 0) {
      for (index_t d = 0; d < 3; ++d) {
        EXPECT_EQ(a.box.lo(d), b.box.lo(d)) << "node " << i << " dim " << d;
        EXPECT_EQ(a.box.hi(d), b.box.hi(d)) << "node " << i << " dim " << d;
      }
    }
  }
  const index_t n = serial.positions().size();
  ASSERT_EQ(n, parallel.positions().size());
  for (index_t i = 0; i < n; ++i)
    for (index_t d = 0; d < 3; ++d)
      EXPECT_EQ(serial.positions().coord(i, d), parallel.positions().coord(i, d))
          << "point " << i << " dim " << d;
}

TEST(OctreeParallelBuild, LargeRandomMatchesSerial) {
  set_num_threads(4);
  const Dataset data = make_gaussian_mixture(40000, 3, 4, 35);
  std::vector<real_t> masses(40000);
  for (index_t i = 0; i < 40000; ++i) masses[i] = 0.5 + (i % 7) * 0.25;
  const Octree serial(data, masses, 16, /*parallel_build=*/false);
  const Octree parallel(data, masses, 16, /*parallel_build=*/true);
  ExpectIdenticalOctrees(serial, parallel);
}

TEST(OctreeParallelBuild, DegenerateInputsMatchSerial) {
  set_num_threads(4);
  // All-duplicate points, large enough (>= 1<<15) that the parallelized
  // materialization actually kicks in. The depth cap stops the recursion.
  {
    std::vector<std::vector<real_t>> points(40000, {1.0, 2.0, 3.0});
    const Dataset data = Dataset::from_points(points);
    const std::vector<real_t> masses(40000, 1.0);
    const Octree serial(data, masses, 8, false);
    const Octree parallel(data, masses, 8, true);
    ExpectIdenticalOctrees(serial, parallel);
  }
  // n < leaf_size: single leaf either way.
  {
    const Dataset data = make_uniform(5, 3, 22);
    const std::vector<real_t> masses(5, 1.0);
    const Octree serial(data, masses, 8, false);
    const Octree parallel(data, masses, 8, true);
    ASSERT_EQ(parallel.num_nodes(), 1);
    EXPECT_TRUE(parallel.node(0).is_leaf());
    ExpectIdenticalOctrees(serial, parallel);
  }
  // n = 0: no nodes, empty perm, no crash.
  {
    const Dataset data(0, 3);
    const std::vector<real_t> masses;
    const Octree serial(data, masses, 8, false);
    const Octree parallel(data, masses, 8, true);
    EXPECT_EQ(parallel.num_nodes(), 0);
    EXPECT_TRUE(parallel.perm().empty());
    ExpectIdenticalOctrees(serial, parallel);
  }
}

} // namespace
} // namespace portal
